#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace moteur {

// Validated parsing for CLI flag values. Every parser names the offending
// flag in its ParseError so the CLI surfaces "--retries must be a positive
// integer (got 'x')" instead of a bare std::stoul exception, and exits
// non-zero through the normal error path.

/// Strictly positive integer (counts: --retries, --shards, --runs, ...).
std::size_t parse_positive_count(const std::string& text, const std::string& flag);

/// Probability in [0, 1] (--inject-failures, --se-loss, ...).
double parse_probability(const std::string& text, const std::string& flag);

/// Strictly positive seconds (--telemetry-interval).
double parse_positive_seconds(const std::string& text, const std::string& flag);

/// Seconds >= 0 (--telemetry-linger, outage starts).
double parse_nonnegative_seconds(const std::string& text, const std::string& flag);

/// Integer >= 0 (--max-inflight, where 0 means unbounded).
std::size_t parse_count(const std::string& text, const std::string& flag);

/// TCP port in [0, 65535] (--telemetry-port, where 0 means ephemeral).
int parse_port(const std::string& text, const std::string& flag);

/// Real number >= 0 (--retry-timeout, where 0 disables the multiplier).
double parse_nonnegative_real(const std::string& text, const std::string& flag);

/// Fraction in (0, 1] (the overhead share adaptive batching aims for).
double parse_fraction(const std::string& text, const std::string& flag);

/// Boolean spelled true | false | 1 | 0 (manifest switches).
bool parse_bool(const std::string& text, const std::string& flag);

/// A flag's (or manifest attribute's) text and the name its errors cite,
/// with the parsers above bound to both.
struct FlagValue {
  const std::string& text;
  const std::string& flag;
  std::size_t count() const { return parse_count(text, flag); }
  std::size_t positive_count() const { return parse_positive_count(text, flag); }
  double probability() const { return parse_probability(text, flag); }
  double fraction() const { return parse_fraction(text, flag); }
  double nonnegative_real() const { return parse_nonnegative_real(text, flag); }
  double positive_seconds() const { return parse_positive_seconds(text, flag); }
  double nonnegative_seconds() const { return parse_nonnegative_seconds(text, flag); }
  int port() const { return parse_port(text, flag); }
  bool boolean() const { return parse_bool(text, flag); }
};

/// One scheduled storage-element downtime window from --se-outage.
struct SeOutageSpec {
  std::string storage_element;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Parse "SE:START:DURATION[,SE:START:DURATION...]" — e.g.
/// "se-north:3600:1800,se0:0:600". START >= 0, DURATION > 0. Whether each SE
/// name exists is for the caller to check against its grid configuration.
std::vector<SeOutageSpec> parse_se_outages(const std::string& text,
                                           const std::string& flag);

}  // namespace moteur
