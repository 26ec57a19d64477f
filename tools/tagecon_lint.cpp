/**
 * @file
 * tagecon_lint: run the repo's determinism & error-discipline rule
 * engine (tools/lint/lint.hpp) over the source tree.
 *
 *   tagecon_lint --root=/path/to/repo
 *
 * Flags:
 *   --root=DIR        repository root to scan (default ".")
 *   --allowlist=FILE  exception table (default
 *                     <root>/tools/lint_allowlist.txt; pass an empty
 *                     value to run with no allowlist)
 *   --dirs=a,b,c      subdirectories to scan, relative to the root
 *                     (default src,tools,bench,examples,tests)
 *   --list-rules      print the rule catalog and exit
 *
 * Prints one "file:line: [rule] message" diagnostic per finding and
 * exits 1 when there are any, 2 on usage or I/O errors, 0 on a clean
 * tree — so CI can gate on it directly.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace {

bool
flagValue(const std::string& arg, const std::string& name,
          std::string& out)
{
    const std::string prefix = "--" + name + "=";
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return false;
    out = arg.substr(prefix.size());
    return true;
}

std::vector<std::string>
splitCommas(const std::string& s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        const size_t comma = s.find(',', start);
        const size_t end = comma == std::string::npos ? s.size() : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace tagecon::lint;

    std::string root = ".";
    std::string allowlist_path;
    bool allowlist_set = false;
    std::vector<std::string> dirs = {"src", "tools", "bench",
                                     "examples", "tests"};

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (flagValue(arg, "root", value)) {
            root = value;
        } else if (flagValue(arg, "allowlist", value)) {
            allowlist_path = value;
            allowlist_set = true;
        } else if (flagValue(arg, "dirs", value)) {
            dirs = splitCommas(value);
        } else if (arg == "--list-rules") {
            for (const auto& rule : ruleCatalog())
                std::printf("%-24s %s\n", rule.name.c_str(),
                            rule.summary.c_str());
            return 0;
        } else {
            std::printf("tagecon_lint: unknown argument '%s'\n",
                        arg.c_str());
            return 2;
        }
    }
    if (!allowlist_set)
        allowlist_path = root + "/tools/lint_allowlist.txt";

    Allowlist allow;
    std::string error;
    if (!allowlist_path.empty() &&
        !Allowlist::loadFile(allowlist_path, allow, error)) {
        std::printf("tagecon_lint: %s\n", error.c_str());
        return 2;
    }

    std::vector<Diagnostic> diags;
    if (!lintTree(root, dirs, allow, diags, error)) {
        std::printf("tagecon_lint: %s\n", error.c_str());
        return 2;
    }

    for (const auto& d : diags)
        std::printf("%s\n", formatDiagnostic(d).c_str());
    if (!diags.empty()) {
        std::printf("tagecon_lint: %zu finding%s (%zu allowlist "
                    "entries active)\n",
                    diags.size(), diags.size() == 1 ? "" : "s",
                    allow.size());
        return 1;
    }
    return 0;
}
