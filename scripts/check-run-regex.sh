#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` regex matches no test in
# the package, so a renamed or deleted test cannot leave a CI regex
# silently empty. Each |-separated alternative is checked with
# `go test -list`, which matches names exactly as -run does:
#
#   bash scripts/check-run-regex.sh 'Chaos|Blackout|Restart' ./internal/cluster/
set -euo pipefail
if [ $# -ne 2 ]; then
	echo "usage: $0 REGEX PACKAGE" >&2
	exit 2
fi
regex=$1 pkg=$2
IFS='|' read -ra alts <<< "$regex"
missing=0
for alt in "${alts[@]}"; do
	out=$(go test -list "$alt" "$pkg")
	if ! grep -qvE '^(ok|\?) ' <<< "$out"; then
		echo "no test in $pkg matches -run alternative '$alt'" >&2
		missing=1
	fi
done
exit $missing
