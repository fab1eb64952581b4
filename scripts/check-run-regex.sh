#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` (or, with -bench, a
# `go test -bench`) regex matches nothing in the packages it runs over, so
# a renamed or deleted test or benchmark cannot leave a CI regex silently
# empty. The packages' top-level names are listed once, with one
# `go test -list .` (one test-binary link per package), and each
# |-separated alternative is matched against them unanchored, as -run and
# -bench match top-level names; it passes when any of the packages has a
# match. Without -bench only the names -run runs count (Test*, Fuzz*,
# Example*); with -bench only Benchmark* names, so an alternative that
# matches just a Test fails. Alternatives are matched as grep -E patterns,
# which agree with Go's regexp syntax on the plain names CI uses:
#
#   bash scripts/check-run-regex.sh 'Chaos|Blackout|Restart' ./internal/cluster/
#   bash scripts/check-run-regex.sh -bench 'KHop|Compact' ./internal/graph/ ./internal/version/
set -euo pipefail
names='^(Test|Fuzz|Example)' kind=test
if [ "${1:-}" = -bench ]; then
	names='^Benchmark' kind=benchmark
	shift
fi
if [ $# -lt 2 ]; then
	echo "usage: $0 [-bench] REGEX PACKAGE..." >&2
	exit 2
fi
regex=$1
shift
out=$(go test -list . "$@")
listed=$(grep -E "$names" <<< "$out" || true)
IFS='|' read -ra alts <<< "$regex"
missing=0
for alt in "${alts[@]}"; do
	if ! grep -qE -- "$alt" <<< "$listed"; then
		echo "no $kind in $* matches alternative '$alt'" >&2
		missing=1
	fi
done
exit $missing
