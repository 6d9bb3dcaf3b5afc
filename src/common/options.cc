#include "common/options.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"

namespace acr
{

namespace
{

/** strto* skip leading whitespace; a strict parse does not. */
bool
startsWithSpace(const std::string &text)
{
    return !text.empty() &&
           std::isspace(static_cast<unsigned char>(text[0])) != 0;
}

} // namespace

bool
parseStrictInt(const std::string &text, long long &out)
{
    if (text.empty() || startsWithSpace(text))
        return false;
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    out = value;
    return true;
}

bool
parseStrictUint(const std::string &text, unsigned long long &out)
{
    if (text.empty() || startsWithSpace(text))
        return false;
    // strtoull silently negates "-1"; reject any sign character so a
    // negative (or explicitly signed) count can't alias a huge value.
    if (text[0] == '-' || text[0] == '+')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    out = value;
    return true;
}

bool
parseStrictDouble(const std::string &text, double &out)
{
    if (text.empty() || startsWithSpace(text))
        return false;
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        return false;
    // ERANGE covers both overflow (±HUGE_VAL) and underflow (a
    // denormal or zero). Underflowed values are still usable
    // approximations; only overflow is a lie worth rejecting.
    if (errno == ERANGE && std::abs(value) == HUGE_VAL)
        return false;
    out = value;
    return true;
}

bool
parseHostPort(const std::string &spec, std::string &host,
              std::uint16_t &port, bool allow_zero_port)
{
    // Split at the last colon so a future bracketed-IPv6 host with
    // embedded colons fails loudly rather than parsing a piece of the
    // address as the port.
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == spec.size())
        return false;
    unsigned long long parsed = 0;
    if (!parseStrictUint(spec.substr(colon + 1), parsed))
        return false;
    if (parsed > 65535 || (parsed == 0 && !allow_zero_port))
        return false;
    host = spec.substr(0, colon);
    port = static_cast<std::uint16_t>(parsed);
    return true;
}

std::vector<std::string>
splitCommaList(const std::string &text)
{
    std::vector<std::string> parts;
    std::stringstream stream(text);
    std::string part;
    while (std::getline(stream, part, ','))
        if (!part.empty())
            parts.push_back(part);
    return parts;
}

OptionParser::OptionParser(std::string program_name)
    : programName_(std::move(program_name))
{
}

void
OptionParser::addString(const std::string &name, const std::string &def,
                        const std::string &help)
{
    options_[name] = Option{Kind::kString, def, def, help};
    order_.push_back(name);
}

void
OptionParser::addInt(const std::string &name, long long def,
                     const std::string &help)
{
    std::string d = std::to_string(def);
    options_[name] = Option{Kind::kInt, d, d, help};
    order_.push_back(name);
}

void
OptionParser::addUint(const std::string &name, unsigned long long def,
                      const std::string &help)
{
    std::string d = std::to_string(def);
    options_[name] = Option{Kind::kUint, d, d, help};
    order_.push_back(name);
}

void
OptionParser::addDouble(const std::string &name, double def,
                        const std::string &help)
{
    std::ostringstream oss;
    oss << def;
    options_[name] = Option{Kind::kDouble, oss.str(), oss.str(), help};
    order_.push_back(name);
}

void
OptionParser::addFlag(const std::string &name, const std::string &help)
{
    options_[name] = Option{Kind::kFlag, "0", "0", help};
    order_.push_back(name);
}

void
OptionParser::assign(Option &opt, const std::string &source,
                     const std::string &value)
{
    if (opt.kind == Kind::kInt) {
        long long parsed = 0;
        if (!parseStrictInt(value, parsed))
            fatal("%s expects an in-range integer, got '%s'",
                  source.c_str(), value.c_str());
    } else if (opt.kind == Kind::kUint) {
        unsigned long long parsed = 0;
        if (!parseStrictUint(value, parsed))
            fatal("%s expects an in-range unsigned integer, got '%s'",
                  source.c_str(), value.c_str());
    } else if (opt.kind == Kind::kDouble) {
        double parsed = 0.0;
        if (!parseStrictDouble(value, parsed))
            fatal("%s expects an in-range number, got '%s'",
                  source.c_str(), value.c_str());
    }
    opt.value = value;
}

void
OptionParser::envDefault(const std::string &name, const char *env_var)
{
    auto it = options_.find(name);
    if (it == options_.end())
        panic("envDefault: option '%s' was never declared", name.c_str());
    const char *text = std::getenv(env_var);
    if (text == nullptr || *text == '\0')
        return;
    Option &opt = it->second;
    if (opt.kind == Kind::kFlag) {
        // A flag's environment form is explicit: "0"/"1" only, so a
        // stray ACR_FOO=yes fails loudly instead of silently enabling.
        if (std::string(text) == "1")
            opt.value.assign(1, '1');
        else if (std::string(text) == "0")
            opt.value.assign(1, '0');
        else
            fatal("%s expects 0 or 1, got '%s'", env_var, text);
        return;
    }
    assign(opt, env_var, text);
}

void
OptionParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected positional argument '%s'", arg.c_str());
        arg = arg.substr(2);
        std::string name = arg;
        std::string value;
        bool has_value = false;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            has_value = true;
        }
        auto it = options_.find(name);
        if (it == options_.end())
            fatal("unknown option '--%s'\n%s", name.c_str(),
                  usage().c_str());
        Option &opt = it->second;
        if (opt.kind == Kind::kFlag) {
            if (has_value)
                fatal("flag '--%s' does not take a value", name.c_str());
            opt.value.assign(1, '1');
            continue;
        }
        if (!has_value)
            fatal("option '--%s' requires =value", name.c_str());
        assign(opt, "option '--" + name + "'", value);
    }
}

const OptionParser::Option &
OptionParser::find(const std::string &name, Kind kind) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        panic("option '%s' was never declared", name.c_str());
    if (it->second.kind != kind)
        panic("option '%s' accessed with the wrong type", name.c_str());
    return it->second;
}

std::string
OptionParser::getString(const std::string &name) const
{
    return find(name, Kind::kString).value;
}

long long
OptionParser::getInt(const std::string &name) const
{
    long long value = 0;
    if (!parseStrictInt(find(name, Kind::kInt).value, value))
        fatal("option '--%s' holds an unparseable integer '%s'",
              name.c_str(), find(name, Kind::kInt).value.c_str());
    return value;
}

unsigned long long
OptionParser::getUint(const std::string &name) const
{
    unsigned long long value = 0;
    if (!parseStrictUint(find(name, Kind::kUint).value, value))
        fatal("option '--%s' holds an unparseable unsigned integer '%s'",
              name.c_str(), find(name, Kind::kUint).value.c_str());
    return value;
}

double
OptionParser::getDouble(const std::string &name) const
{
    double value = 0.0;
    if (!parseStrictDouble(find(name, Kind::kDouble).value, value))
        fatal("option '--%s' holds an unparseable number '%s'",
              name.c_str(), find(name, Kind::kDouble).value.c_str());
    return value;
}

bool
OptionParser::getFlag(const std::string &name) const
{
    return find(name, Kind::kFlag).value == "1";
}

std::string
OptionParser::usage() const
{
    std::ostringstream oss;
    oss << "usage: " << programName_ << " [options]\n";
    for (const auto &name : order_) {
        const Option &opt = options_.at(name);
        oss << "  --" << name;
        if (opt.kind != Kind::kFlag)
            oss << "=<v>";
        oss << "  " << opt.help << " (default: " << opt.def << ")\n";
    }
    return oss.str();
}

} // namespace acr
