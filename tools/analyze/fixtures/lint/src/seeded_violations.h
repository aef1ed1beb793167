// Deliberately non-conforming fixture for the lint pass. NOT compiled into
// any target — ctest runs copyattack-analyze over this fixture with
// WILL_FAIL, and analyze_tokenizer_test pins each rule to its line. Every
// block is one banned pattern; keep exactly one violation per rule so a
// regression is attributable.

// header-guard: this header intentionally has neither `#pragma once` nor a
// COPYATTACK_*_H_ include guard.

inline int SeededStdRand() {
  return std::rand();  // std-rand: must use util::Rng
}

inline unsigned SeededTimeSeed() {
  return static_cast<unsigned>(time(nullptr));  // det-raw-entropy
}

inline int* SeededRawNew() {
  return new int(42);  // raw-new: unannotated raw allocation
}

inline void SeededPrintf(double value) {
  printf("%f\n", value);  // printf-family: bypasses CA_LOG
}

inline bool SeededFloatEq(double value) {
  return value == 1.0;  // float-eq: exact floating-point compare
}
