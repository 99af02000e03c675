// frlfi_lint fixture: environment reads outside bench/ and tools/ — test_lint
// pins this file to exactly two R1 findings, one per free getenv() call;
// the look-alikes below must stay silent. Never compiled; linted only.
//
// Prose mentions that must not fire: std::getenv("HOME").
#include <cstdlib>
#include <string>

std::size_t lanes_from_environment() {
  const char* text = std::getenv("LANES");  // R1: hidden configuration
  return text != nullptr ? std::stoul(text) : 1;
}

bool verbose() { return getenv("VERBOSE") != nullptr; }  // R1

// Look-alikes: a string literal, member calls spelled getenv (a config
// object's own lookup), and an identifier that only contains the stem.
const char* banner() { return "getenv() inside a string literal is fine"; }
template <typename T>
const char* lookup(const T& settings, const T* fallback) {
  return settings.getenv("A") != nullptr ? settings.getenv("A")
                                         : fallback->getenv("B");
}
int safe_getenv_count = 0;
