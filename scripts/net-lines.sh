#!/bin/sh
# Added, removed and net lines per area between a base commit and HEAD.
#
# Usage: scripts/net-lines.sh [base]        (base defaults to HEAD~1)
#
# Areas: each crates/<name>, tests, perfbench, docs (other *.md files),
# other (everything else) and unit tests: the lines at or after the first
# `#[cfg(test)]` line of a crates/ .rs file, read in the base version for
# removed lines and in HEAD for added ones. Unit-test lines count in no
# crate's row. The area rows are sorted by name and sum to the total. Two
# summary rows follow: library (crates/ without bench, compat and unit
# tests) and total. ISSUE.md and CHANGES.md are not counted.
set -eu
base=${1:-HEAD~1}
from=$(git merge-base "$base" HEAD)

# The line number of the first `#[cfg(test)]` of file $2 at commit $1
# (empty when there is none or the file is absent there).
test_start() {
    git show "$1:$2" 2>/dev/null | grep -n -m1 -x '#\[cfg(test)\]' | cut -d: -f1
}

{
    git diff --name-only --no-renames "$base...HEAD" -- 'crates/*.rs' |
        while IFS= read -r f; do
            printf '%s\t%s\t%s\n' "$f" "$(test_start "$from" "$f")" "$(test_start HEAD "$f")"
        done
    echo '@diff'
    git diff -U0 --no-renames "$base...HEAD"
} | awk '
# First the test-section starts, one line per crates/ .rs file.
!diff {
    if ($0 == "@diff") { diff = 1; next }
    split($0, m, "\t")
    B[m[1]] = m[2] + 0; H[m[1]] = m[3] + 0
    next
}
/^diff --git / { header = 1; old = ""; new = ""; next }
header && /^--- / { old = (substr($0, 5) == "/dev/null") ? "" : substr($0, 7); next }
header && /^\+\+\+ / { new = (substr($0, 5) == "/dev/null") ? "" : substr($0, 7); next }
/^@@ / {
    header = 0
    file = (new != "") ? new : old
    split($2, o, ","); split($3, n, ",")
    ol = -o[1]; nl = n[1] + 0
    skip = (file == "ISSUE.md" || file == "CHANGES.md")
    split(file, p, "/")
    if (p[1] == "crates") area = "crates/" p[2]
    else if (p[1] == "tests" || p[1] == "perfbench") area = p[1]
    else if (file ~ /\.md$/) area = "docs"
    else area = "other"
    lib = (area ~ /^crates\// && area != "crates/bench" && area != "crates/compat")
    rs = (area ~ /^crates\// && file ~ /\.rs$/)
    next
}
header { next }
/^-/ {
    if (!skip) {
        a = (rs && B[file] && ol >= B[file]) ? "unit tests" : area
        D[a]++; A[a] += 0; TD++
        if (a == area && lib) LD++
    }
    ol++
    next
}
/^\+/ {
    if (!skip) {
        a = (rs && H[file] && nl >= H[file]) ? "unit tests" : area
        A[a]++; D[a] += 0; TA++
        if (a == area && lib) LA++
    }
    nl++
    next
}
END {
    f = "%-16s %8d %8d %+8d\n"
    for (a in A) printf f, a, A[a], D[a], A[a] - D[a] | "sort"
    close("sort")
    printf f, "library", LA, LD, LA - LD
    printf f, "total", TA, TD, TA - TD
}' | { printf '%-16s %8s %8s %8s\n' area added removed net; cat; }
