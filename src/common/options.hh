/**
 * @file
 * Minimal command-line option parsing for the bench and example binaries:
 * "--name=value" and "--flag" forms, with typed accessors and generated
 * usage text.
 */

#ifndef ACR_COMMON_OPTIONS_HH
#define ACR_COMMON_OPTIONS_HH

#include <map>
#include <string>
#include <vector>

namespace acr
{

/**
 * Strict numeric parsing shared by every flag and environment-variable
 * code path: the whole string must be one base-10 value, in range for
 * the target type. Empty input, leading/trailing garbage (including
 * whitespace), and overflow/underflow (ERANGE) all return false — so
 * "--retries=99999999999999999999" or ACR_JOBS="4x" fail loudly
 * instead of silently clamping or truncating.
 */
bool parseStrictInt(const std::string &text, long long &out);
bool parseStrictUint(const std::string &text, unsigned long long &out);
bool parseStrictDouble(const std::string &text, double &out);

/** The nonempty pieces of a comma-separated list flag ("a,,b," gives
 *  a and b; "" gives none). */
std::vector<std::string> splitCommaList(const std::string &text);

/** Declarative command-line option parser. */
class OptionParser
{
  public:
    /** @param program_name used in usage output. */
    explicit OptionParser(std::string program_name);

    /** Declare a string option with a default. */
    void addString(const std::string &name, const std::string &def,
                   const std::string &help);

    /** Declare an integer option with a default. */
    void addInt(const std::string &name, long long def,
                const std::string &help);

    /** Declare an unsigned option with a default (rejects any sign). */
    void addUint(const std::string &name, unsigned long long def,
                 const std::string &help);

    /** Declare a floating-point option with a default. */
    void addDouble(const std::string &name, double def,
                   const std::string &help);

    /** Declare a boolean flag (default false; "--name" sets true). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Route an environment variable through the declared option: if
     * `env_var` is set and nonempty, its text is assigned to `--name`
     * through the same validation as a command-line "--name=value"
     * (fatal() on a type error names the variable). Call between the
     * declarations and parse() — argv is applied later, so an explicit
     * flag always wins over the environment.
     */
    void envDefault(const std::string &name, const char *env_var);

    /**
     * Parse argv. Calls fatal() on unknown options or type errors.
     * Handles "--help" by printing usage and exiting 0.
     */
    void parse(int argc, const char *const *argv);

    std::string getString(const std::string &name) const;
    long long getInt(const std::string &name) const;
    unsigned long long getUint(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /** Usage text for all declared options. */
    std::string usage() const;

  private:
    enum class Kind { kString, kInt, kUint, kDouble, kFlag };

    struct Option
    {
        Kind kind;
        std::string value;
        std::string def;
        std::string help;
    };

    const Option &find(const std::string &name, Kind kind) const;

    /** Shared assignment/validation for argv and environment values.
     *  `source` names the origin ("option '--jobs'" or "ACR_JOBS") in
     *  error messages. */
    void assign(Option &opt, const std::string &source,
                const std::string &value);

    std::string programName_;
    std::map<std::string, Option> options_;
    std::vector<std::string> order_;
};

} // namespace acr

#endif // ACR_COMMON_OPTIONS_HH
