#!/usr/bin/env bash
# Fails if the compiler fused a multiply and an add anywhere in the numeric
# packages when building for arm64:
#
#   bash scripts/check-nofma.sh
#
# The Go spec lets a compiler fuse x*y + z into one multiply-add rounded
# once, and the arm64 backend does; amd64 rounds the product and the sum
# separately. Every product-sum in tensor, nn, operator and core is written
# with an explicit conversion, s += float64(x*y), which forbids the fusion,
# so fixed-seed losses and embeddings have the same bits on every
# architecture. This builds those packages' test binaries (their oracles
# included) for arm64 with `go test -c`, disassembles them with
# `go tool objdump` and lists every function of the four packages that
# holds an FMADDD, FMSUBD, FNMADDD or FNMSUBD. It needs no arm64 machine.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mod="$(go list -m)"
pkgs=(tensor nn operator core)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for p in "${pkgs[@]}"; do
	GOARCH=arm64 go test -c -o "$tmp/$p.test" "./internal/$p/"
done

pattern="^$mod/internal/($(
	IFS='|'
	echo "${pkgs[*]}"
))[._]"
for p in "${pkgs[@]}"; do
	go tool objdump "$tmp/$p.test" | awk -v pat="$pattern" '
		/^TEXT / { fn = $2; next }
		/\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)[ \t]/ && fn ~ pat { n[fn]++ }
		END { for (f in n) printf "%d fused in %s\n", n[f], f }
	'
done | sort -u -k4 >"$tmp/fused"
if [[ -s "$tmp/fused" ]]; then
	cat "$tmp/fused"
	echo "check-nofma: fused multiply-adds found; round each product with float64(x*y)" >&2
	exit 1
fi
echo "check-nofma: no fused multiply-add in ${pkgs[*]} (arm64)"
