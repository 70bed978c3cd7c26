// fptc_servestat: render the serve worker's live status file.
//
// Usage:
//   fptc_servestat <status.json> [--raw]
//
// The status file is the atomic (temp + rename) JSON export the worker
// refreshes every FPTC_SERVE_STATUS_S seconds; this CLI turns it into a
// greppable key=value summary so scripts and humans need no JSON parser:
//
//   servestat: pid=<n> generation=<n> ... tier=<name> flows_active=<n> ...
//   stage name=<stage> count=<n> p50_ns=<n> p95_ns=<n> p99_ns=<n> ...
//
// --raw prints the file verbatim instead.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace {

int usage(const char* argv0)
{
    std::fprintf(stderr, "usage: %s <status.json> [--raw]\n", argv0);
    return 2;
}

/// Minimal field extraction for the flat JSON the worker emits: finds
/// "key": and returns the scalar (number, bool, or quoted string) after it,
/// searching from `from` so repeated keys (stage entries) can be walked.
std::string field(const std::string& text, const std::string& key, std::size_t from = 0,
                  std::size_t* end = nullptr)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle, from);
    if (at == std::string::npos) {
        return "";
    }
    std::size_t pos = at + needle.size();
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
        ++pos;
    }
    std::string value;
    if (pos < text.size() && text[pos] == '"') {
        const std::size_t close = text.find('"', pos + 1);
        if (close == std::string::npos) {
            return "";
        }
        value = text.substr(pos + 1, close - pos - 1);
        pos = close + 1;
    } else {
        while (pos < text.size() && text[pos] != ',' && text[pos] != '\n' &&
               text[pos] != '}' && text[pos] != ']') {
            value += text[pos++];
        }
        while (!value.empty() && value.back() == ' ') {
            value.pop_back();
        }
    }
    if (end != nullptr) {
        *end = pos;
    }
    return value;
}

} // namespace

int main(int argc, char** argv)
{
    std::string path;
    bool raw = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--raw") == 0) {
            raw = true;
        } else if (path.empty()) {
            path = argv[i];
        } else {
            return usage(argv[0]);
        }
    }
    if (path.empty()) {
        return usage(argv[0]);
    }

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "fptc_servestat: cannot open %s\n", path.c_str());
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    if (text.empty()) {
        std::fprintf(stderr, "fptc_servestat: %s is empty\n", path.c_str());
        return 1;
    }
    if (raw) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return 0;
    }

    // Every top-level scalar, in file order (the counters are the rows of
    // fptc/serve/counters.hpp); the tier rides under a short name.
    std::printf("servestat:");
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        const std::size_t close = line.find("\": ");
        if (line.rfind("  \"", 0) != 0 || close == std::string::npos) {
            continue;
        }
        const std::string key = line.substr(3, close - 3);
        const std::string value = field(line, key);
        if (!value.empty() && value.front() != '{' && value.front() != '[') {
            std::printf(" %s=%s", key == "breaker_tier_name" ? "tier" : key.c_str(),
                        value.c_str());
        }
    }
    std::printf(" frec_events=%s frec_dropped=%s\n",
                field(text, "events", text.find("\"flightrec\"")).c_str(),
                field(text, "dropped", text.find("\"flightrec\"")).c_str());

    // One line per stage entry in the "stages" array.
    std::size_t cursor = text.find("\"stages\"");
    while (cursor != std::string::npos) {
        std::size_t after = 0;
        const std::string stage = field(text, "stage", cursor, &after);
        if (stage.empty()) {
            break;
        }
        std::printf("stage name=%s count=%s p50_ns=%s p95_ns=%s p99_ns=%s "
                    "p99_exemplar_flow=%s\n",
                    stage.c_str(), field(text, "count", after).c_str(),
                    field(text, "p50_ns", after).c_str(), field(text, "p95_ns", after).c_str(),
                    field(text, "p99_ns", after).c_str(),
                    field(text, "p99_exemplar_flow", after).c_str());
        cursor = after;
    }
    return 0;
}
