#!/bin/sh
# Non-test Go line counts for a change: lines added, removed and net per
# package directory, from `git diff --numstat` between BASE and the
# working tree. Untracked (not ignored) Go files count as added, so a new
# file shows up before it is staged. Test files (*_test.go), testdata/
# and perfbench/ are left out.
#
# Usage: ./scripts/loc.sh [BASE]     (BASE defaults to HEAD)
#   ./scripts/loc.sh HEAD~1          the last commit plus uncommitted work
set -eu

cd "$(dirname "$0")/.."
base=${1:-HEAD}

{
	git diff --no-renames --numstat "$base" -- '*.go'
	git ls-files --others --exclude-standard -- '*.go' | while read -r f; do
		printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
	done
} | awk -F '\t' '
	$3 ~ /_test\.go$/ || $3 ~ /(^|\/)testdata\// || $3 ~ /^perfbench\// { next }
	{
		dir = $3
		if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		print dir "\t" $1 "\t" $2
	}' | sort | awk -F '\t' '
	BEGIN { printf "%-28s %8s %8s %8s\n", "directory", "added", "removed", "net" }
	$1 != dir && NR > 1 { row() }
	{ dir = $1; add += $2; del += $3; tadd += $2; tdel += $3 }
	function row() { printf "%-28s %8d %8d %+8d\n", dir, add, del, add - del; add = del = 0 }
	END {
		if (NR > 0) row()
		printf "%-28s %8d %8d %+8d\n", "total", tadd, tdel, tadd - tdel
	}'
