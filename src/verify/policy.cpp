#include "verify/policy.h"

#include "verify/reach.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace cheriot::verify
{

namespace
{

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> parts;
    std::string current;
    for (char c : text) {
        if (c == ',') {
            if (!current.empty()) {
                parts.push_back(current);
                current.clear();
            }
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            current += c;
        }
    }
    if (!current.empty()) {
        parts.push_back(current);
    }
    return parts;
}

bool
allows(const std::vector<std::string> &allowed, const std::string &name)
{
    return std::find(allowed.begin(), allowed.end(), name) !=
           allowed.end();
}

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

/** The whitespace-separated words of one policy line, in order. No
 * stream: a std::istringstream would initialize the iostream locale
 * machinery, about 0.6 MB of resident memory, at the first boot. */
class Words
{
  public:
    explicit Words(const std::string &line) : line_(line) {}

    /** The next word, or "" past the last. */
    std::string next()
    {
        while (pos_ < line_.size() && isSpace(line_[pos_])) {
            ++pos_;
        }
        const size_t start = pos_;
        while (pos_ < line_.size() && !isSpace(line_[pos_])) {
            ++pos_;
        }
        return line_.substr(start, pos_ - start);
    }

    /** Everything after the last word read. */
    std::string rest() const { return line_.substr(pos_); }

  private:
    static bool isSpace(char c)
    {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    }

    const std::string &line_;
    size_t pos_ = 0;
};

bool
parseLine(const std::string &line, unsigned lineNo,
          const std::string &sourceName, std::vector<PolicyRule> &rules,
          std::string *error)
{
    Words in(line);
    const std::string keyword = in.next();

    const std::string where =
        sourceName + ":" + std::to_string(lineNo) + ": ";

    PolicyRule rule;
    rule.text = line;

    if (keyword == "require") {
        const std::string what = in.next();
        if (what == "globals-no-store-local") {
            rule.kind = PolicyRule::Kind::RequireGlobalsNoStoreLocal;
        } else if (what == "code-not-writable") {
            rule.kind = PolicyRule::Kind::RequireCodeNotWritable;
        } else if (what == "no-shared-mutable") {
            rule.kind = PolicyRule::Kind::RequireNoSharedMutable;
        } else {
            return fail(error, where + "unknown requirement '" + what +
                                   "'");
        }
    } else if (keyword == "mmio" || keyword == "reach") {
        const std::string window = in.next();
        const std::string only = in.next();
        const std::string list = in.rest();
        if (window.empty() || only != "only") {
            return fail(error, where + "expected '" + keyword +
                                   " <window> only "
                                   "<compartments|none>', got '" +
                                   (only.empty() ? window : only) + "'");
        }
        rule.kind = keyword == "mmio" ? PolicyRule::Kind::MmioOnly
                                      : PolicyRule::Kind::ReachOnly;
        rule.window = window;
        rule.allowed = splitList(list);
        if (rule.allowed.size() == 1 && rule.allowed[0] == "none") {
            rule.allowed.clear();
        } else if (rule.allowed.empty()) {
            return fail(error, where + keyword +
                                   " rule needs a compartment list "
                                   "or 'none'");
        }
    } else if (keyword == "hold") {
        const std::string type = in.next();
        const std::string only = in.next();
        const std::string list = in.rest();
        if ((type != "time" && type != "channel" && type != "monitor") ||
            only != "only") {
            return fail(error, where + "expected 'hold "
                                   "<time|channel|monitor> only "
                                   "<compartments|none>', got '" +
                                   type + (only.empty() ? "" : " ") +
                                   only + "'");
        }
        rule.kind = PolicyRule::Kind::HoldOnly;
        rule.window = type;
        rule.allowed = splitList(list);
        if (rule.allowed.size() == 1 && rule.allowed[0] == "none") {
            rule.allowed.clear();
        } else if (rule.allowed.empty()) {
            return fail(error, where + std::string(
                                   "hold rule needs a compartment list "
                                   "or 'none'"));
        }
    } else if (keyword == "interrupts-disabled") {
        const std::string only = in.next();
        const std::string list = in.rest();
        if (only != "only") {
            return fail(error, where + "expected 'interrupts-disabled "
                                   "only <compartments|none>', got '" +
                                   only + "'");
        }
        rule.kind = PolicyRule::Kind::InterruptsDisabledOnly;
        rule.allowed = splitList(list);
        if (rule.allowed.size() == 1 && rule.allowed[0] == "none") {
            rule.allowed.clear();
        } else if (rule.allowed.empty()) {
            return fail(error,
                        where + std::string(
                                    "interrupts-disabled rule needs a "
                                    "compartment list or 'none'"));
        }
    } else {
        return fail(error, where + "unknown keyword '" + keyword + "'");
    }

    rules.push_back(std::move(rule));
    return true;
}

} // namespace

std::optional<Policy>
Policy::parse(const std::string &text, std::string *error,
              const std::string &sourceName)
{
    Policy policy;
    unsigned lineNo = 0;
    for (size_t start = 0; start < text.size();) {
        const size_t end = std::min(text.find('\n', start), text.size());
        std::string line = text.substr(start, end - start);
        start = end + 1;
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        const auto firstNonSpace = line.find_first_not_of(" \t\r");
        if (firstNonSpace == std::string::npos) {
            continue;
        }
        if (!parseLine(line, lineNo, sourceName, policy.rules_, error)) {
            return std::nullopt;
        }
    }
    return policy;
}

Policy
Policy::defaultPolicy()
{
    auto policy = parse("require globals-no-store-local\n"
                        "require code-not-writable\n"
                        "require no-shared-mutable\n"
                        "mmio revocation-bitmap only alloc\n"
                        "mmio nic only net_driver\n"
                        "reach revocation-bitmap only alloc\n",
                        nullptr, "default-policy");
    return *policy;
}

std::vector<PolicyViolation>
Policy::evaluate(const rtos::AuditReport &report) const
{
    std::vector<PolicyViolation> violations;
    // The reachability closure is shared by every reach/sharing rule;
    // build it lazily so purely structural policies stay cheap.
    std::optional<AuthorityReach> reach;
    auto reachability = [&]() -> const AuthorityReach & {
        if (!reach) {
            reach.emplace(report);
        }
        return *reach;
    };
    for (const auto &rule : rules_) {
        switch (rule.kind) {
          case PolicyRule::Kind::RequireGlobalsNoStoreLocal:
            for (const auto &c : report.compartments) {
                if (c.globalsStoreLocal) {
                    violations.push_back(
                        {rule.text, c.name,
                         "globals capability carries Store-Local: stack "
                         "references could be captured (§5.2)"});
                }
            }
            break;
          case PolicyRule::Kind::RequireCodeNotWritable:
            for (const auto &c : report.compartments) {
                if (c.codeWritable) {
                    violations.push_back(
                        {rule.text, c.name,
                         "code capability is writable: W^X violated"});
                }
            }
            break;
          case PolicyRule::Kind::MmioOnly:
            for (const auto &c : report.compartments) {
                for (const auto &window : c.mmioImports) {
                    if (window.window == rule.window &&
                        !allows(rule.allowed, c.name)) {
                        violations.push_back(
                            {rule.text, c.name,
                             "imports MMIO window '" + window.window +
                                 "' but is not on the allow list"});
                    }
                }
            }
            break;
          case PolicyRule::Kind::ReachOnly:
            for (const auto &name :
                 reachability().reachers(rule.window)) {
                if (!allows(rule.allowed, name)) {
                    violations.push_back(
                        {rule.text, name,
                         "can reach authority '" + rule.window +
                             "' (holds it or can invoke a holder) but "
                             "is not on the allow list"});
                }
            }
            break;
          case PolicyRule::Kind::RequireNoSharedMutable:
            for (const auto &issue : reachability().sharedMutable()) {
                std::string writers;
                for (const auto &writer : issue.writers) {
                    if (!writers.empty()) {
                        writers += ",";
                    }
                    writers += writer;
                }
                violations.push_back({rule.text, writers, issue.message,
                                      FindingClass::SharedMutable});
            }
            break;
          case PolicyRule::Kind::HoldOnly:
            for (const auto &c : report.compartments) {
                for (const auto &holding : c.tokenHoldings) {
                    if (holding == rule.window &&
                        !allows(rule.allowed, c.name)) {
                        violations.push_back(
                            {rule.text, c.name,
                             "holds a live '" + holding +
                                 "' object capability but is not on "
                                 "the allow list"});
                    }
                }
            }
            break;
          case PolicyRule::Kind::InterruptsDisabledOnly:
            for (const auto &e : report.exports) {
                if (e.interruptsDisabled &&
                    !allows(rule.allowed, e.compartment)) {
                    violations.push_back(
                        {rule.text, e.compartment,
                         "export '" + e.entryPoint +
                             "' runs with interrupts disabled but the "
                             "compartment is not on the allow list"});
                }
            }
            break;
        }
    }
    return violations;
}

std::string
Policy::toString() const
{
    std::string out;
    for (const auto &rule : rules_) {
        out += rule.text;
        out += "\n";
    }
    return out;
}

} // namespace cheriot::verify
