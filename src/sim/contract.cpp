#include "sim/contract.hpp"

#include <utility>

namespace dredbox::sim {

namespace {

std::string compose(const std::string& kind, const std::string& expression,
                    const std::string& file, int line, const std::string& function,
                    const std::string& message) {
  std::string out = kind + " violated: " + expression + " (" + file + ":" +
                    std::to_string(line) + " in " + function + ")";
  if (!message.empty()) out += ": " + message;
  return out;
}

}  // namespace

ContractViolation::ContractViolation(std::string kind, std::string expression, std::string file,
                                     int line, std::string function, std::string message)
    : std::logic_error{compose(kind, expression, file, line, function, message)},
      kind_{std::move(kind)},
      expression_{std::move(expression)},
      file_{std::move(file)},
      line_{line},
      function_{std::move(function)},
      message_{std::move(message)} {}

void throw_if_invalid(const std::string& what, const std::vector<std::string>& errors) {
  if (errors.empty()) return;
  std::string message = "invalid " + what + ":";
  for (const std::string& e : errors) message += "\n  - " + e;
  throw std::invalid_argument(message);
}

namespace contract_detail {

void fail(const char* kind, const char* expression, const char* file, int line,
          const char* function, const std::string& message) {
  throw ContractViolation{kind, expression, file, line, function, message};
}

}  // namespace contract_detail

}  // namespace dredbox::sim
