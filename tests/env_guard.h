#ifndef GREEN_TESTS_ENV_GUARD_H_
#define GREEN_TESTS_ENV_GUARD_H_

#include <cstdlib>
#include <optional>
#include <string>

namespace green {

/// Sets an environment variable (nullptr unsets it) for one scope, then
/// restores whatever it held before.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    Set(value);
  }
  ~EnvGuard() { Set(old_ ? old_->c_str() : nullptr); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

  void Set(const char* value) {
    if (value == nullptr) {
      ::unsetenv(name_.c_str());
    } else {
      ::setenv(name_.c_str(), value, 1);
    }
  }

 private:
  std::string name_;
  std::optional<std::string> old_;
};

}  // namespace green

#endif  // GREEN_TESTS_ENV_GUARD_H_
