#include "util/flags.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace moteur {

namespace {

bool to_double(const std::string& text, double& out) {
  const std::string trimmed = trim(text);
  if (trimmed.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtod(trimmed.c_str(), &end);
  return errno == 0 && end == trimmed.c_str() + trimmed.size() && std::isfinite(out);
}

bool to_count(const std::string& text, std::size_t& out) {
  const std::string trimmed = trim(text);
  if (trimmed.empty() || trimmed.front() == '-' || trimmed.front() == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(trimmed.c_str(), &end, 10);
  if (errno != 0 || end != trimmed.c_str() + trimmed.size()) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

}  // namespace

std::size_t parse_positive_count(const std::string& text, const std::string& flag) {
  std::size_t value = 0;
  if (!to_count(text, value) || value == 0) {
    throw ParseError(flag + " must be a positive integer (got '" + text + "')");
  }
  return value;
}

std::size_t parse_count(const std::string& text, const std::string& flag) {
  std::size_t value = 0;
  if (!to_count(text, value)) {
    throw ParseError(flag + " must be a non-negative integer (got '" + text + "')");
  }
  return value;
}

int parse_port(const std::string& text, const std::string& flag) {
  std::size_t value = 0;
  if (!to_count(text, value) || value > 65535) {
    throw ParseError(flag + " must be a port number in [0, 65535] (got '" + text + "')");
  }
  return static_cast<int>(value);
}

double parse_nonnegative_real(const std::string& text, const std::string& flag) {
  double value = 0.0;
  if (!to_double(text, value) || value < 0.0) {
    throw ParseError(flag + " must be a non-negative number (got '" + text + "')");
  }
  return value;
}

double parse_fraction(const std::string& text, const std::string& flag) {
  double value = 0.0;
  if (!to_double(text, value) || value <= 0.0 || value > 1.0) {
    throw ParseError(flag + " must be a fraction in (0, 1] (got '" + text + "')");
  }
  return value;
}

bool parse_bool(const std::string& text, const std::string& flag) {
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  throw ParseError(flag + " must be true | false | 1 | 0 (got '" + text + "')");
}

double parse_probability(const std::string& text, const std::string& flag) {
  double value = 0.0;
  if (!to_double(text, value) || value < 0.0 || value > 1.0) {
    throw ParseError(flag + " must be a probability in [0, 1] (got '" + text + "')");
  }
  return value;
}

double parse_positive_seconds(const std::string& text, const std::string& flag) {
  double value = 0.0;
  if (!to_double(text, value) || value <= 0.0) {
    throw ParseError(flag + " must be a positive number of seconds (got '" + text + "')");
  }
  return value;
}

double parse_nonnegative_seconds(const std::string& text, const std::string& flag) {
  double value = 0.0;
  if (!to_double(text, value) || value < 0.0) {
    throw ParseError(flag + " must be a non-negative number of seconds (got '" + text +
                     "')");
  }
  return value;
}

std::vector<SeOutageSpec> parse_se_outages(const std::string& text,
                                           const std::string& flag) {
  std::vector<SeOutageSpec> specs;
  for (const std::string& entry : split(text, ',')) {
    const std::vector<std::string> fields = split(entry, ':');
    if (fields.size() != 3 || trim(fields[0]).empty()) {
      throw ParseError(flag + " entries must look like SE:START:DURATION (got '" +
                       entry + "')");
    }
    SeOutageSpec spec;
    spec.storage_element = trim(fields[0]);
    spec.start_seconds = parse_nonnegative_seconds(fields[1], flag + " start");
    spec.duration_seconds = parse_positive_seconds(fields[2], flag + " duration");
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    throw ParseError(flag + " names no outage windows");
  }
  return specs;
}

}  // namespace moteur
