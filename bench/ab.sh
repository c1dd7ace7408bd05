#!/usr/bin/env bash
# Compares the working tree against another commit, with identical
# benchmark code on both sides:
#
#   bash bench/ab.sh BASE [WORKLOAD...]
#
# BASE is any git revision. Its tree is exported into a temporary
# directory (git archive) and the working tree's bench/ and
# BENCHMARK.json are copied over it, so only the program differs. For
# each workload (default: all four) it runs PAIRS alternating pairs
# (default 10), the base first on odd pairs, each run with -seed SEED
# (default 1) for SECONDS_PER_RUN seconds (default 15). It then prints,
# per metric, each side's median and quartiles, the share of pairs the
# working tree won, and the verdict of `bench -compare` (gain,
# regression, unresolved or same; see README.md).
set -euo pipefail

base=${1:?usage: bash bench/ab.sh BASE [WORKLOAD...]}
shift
workloads=${*:-batch analyze serve-warm serve-cold}
pairs=${PAIRS:-10}
seed=${SEED:-1}
seconds=${SECONDS_PER_RUN:-15}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
rm -rf "$tmp/base/bench"
cp -R "$root/bench" "$tmp/base/bench"
cp "$root/BENCHMARK.json" "$tmp/base/BENCHMARK.json"

# one SIDE WORKLOAD runs the benchmark once in SIDE's tree and appends its
# result line to $tmp/SIDE.WORKLOAD.jsonl.
one() {
	local dir=$root
	[[ $1 == base ]] && dir=$tmp/base
	if ! (cd "$dir" && bash bench/run.sh --workload "$2" --seed "$seed" \
		--seconds "$seconds" --trace 0) >"$tmp/log" 2>&1; then
		echo "ab: $1 $2 failed:" >&2
		cat "$tmp/log" >&2
		exit 1
	fi
	tail -n 1 "$tmp/log" >>"$tmp/$1.$2.jsonl"
}

for w in $workloads; do
	for ((k = 1; k <= pairs; k++)); do
		if ((k % 2)); then
			one base "$w"
			one head "$w"
		else
			one head "$w"
			one base "$w"
		fi
	done
	echo "== $w ($base vs working tree)"
	"$root/.bench_build/pgvnbench" -compare "$tmp/base.$w.jsonl,$tmp/head.$w.jsonl" \
		-spec "$root/BENCHMARK.json"
done
