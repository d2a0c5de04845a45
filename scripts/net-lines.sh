#!/bin/sh
# Added, removed and net lines per area between a base commit and HEAD.
#
# Usage: scripts/net-lines.sh [base]        (base defaults to HEAD~1)
#
# Areas: each crates/<name>, tests, perfbench, docs (other *.md files) and
# other (everything else), sorted by name. Two summary rows follow:
# library (crates/ without bench and compat) and total. ISSUE.md and
# CHANGES.md are not counted.
set -eu
base=${1:-HEAD~1}
git diff --numstat --no-renames "$base...HEAD" | awk -F '\t' '
$3 == "ISSUE.md" || $3 == "CHANGES.md" { next }
{
    add = ($1 == "-") ? 0 : $1
    del = ($2 == "-") ? 0 : $2
    split($3, p, "/")
    if (p[1] == "crates") area = "crates/" p[2]
    else if (p[1] == "tests" || p[1] == "perfbench") area = p[1]
    else if ($3 ~ /\.md$/) area = "docs"
    else area = "other"
    A[area] += add; D[area] += del
    if (area ~ /^crates\// && area != "crates/bench" && area != "crates/compat") {
        LA += add; LD += del
    }
    TA += add; TD += del
}
END {
    f = "%-16s %8d %8d %+8d\n"
    for (a in A) printf f, a, A[a], D[a], A[a] - D[a] | "sort"
    close("sort")
    printf f, "library", LA, LD, LA - LD
    printf f, "total", TA, TD, TA - TD
}' | { printf '%-16s %8s %8s %8s\n' area added removed net; cat; }
