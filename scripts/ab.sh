#!/usr/bin/env bash
# A/B one benchmark workload: BASE (a commit, exported with git archive)
# against the working tree, in alternating pairs, as the choosing-metrics
# guide §8 asks of every gain claim. Driven by `make ab`; it only *calls*
# bench/run.sh of each tree, exactly as the driver does.
#
#   scripts/ab.sh [--self] <workload> [pairs=10] [base=HEAD]
#
# Every run is appended to .bench_build/ab/runs-<workload>.tsv (side, pair,
# failed, then one column per end-to-end metric); the summary over that
# invocation's runs is printed at the end.
#
# --self (make ab SELF=1) runs the working tree on both sides — the noise
# floor of the box: the summary must end in "no difference", and the spread
# it prints is what a real A/B's medians are read against. Its runs go to
# runs-<workload>-self.tsv.
set -euo pipefail
cd "$(dirname "$0")/.."

self=
if [ "${1:-}" = --self ]; then
	self=1
	shift
fi
w=${1:?usage: scripts/ab.sh [--self] <workload> [pairs] [base]}
pairs=${2:-10}
base=${3:-HEAD}
metrics="wall_s setup_s rounds_per_s" # BENCHMARK.json end_to_end; rounds_per_s is higher-better

ab=.bench_build/ab
mkdir -p "$ab"
if [ -n "$self" ]; then
	sha="the working tree"
	tree=.
else
	sha=$(git rev-parse --verify "$base^{commit}")
	tree=$ab/$sha
	if [ ! -d "$tree" ]; then
		mkdir -p "$tree"
		git archive "$sha" | tar -x -C "$tree"
	fi
fi
tsv=$ab/runs-$w${self:+-self}.tsv
cur=$(mktemp)
trap 'rm -f "$cur"' EXIT

# run <side> <dir> <pair>: one driver-style run, one TSV row.
run() {
	local line row m
	line=$(bash "$2/bench/run.sh" --workload "$w" --seconds 10 --trace 0 | tail -n 1)
	row="$1	$3	$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line")"
	for m in $metrics; do
		row="$row	$(sed -n "s/.*\"$m\":{\"value\":\([-0-9.e+]*\).*/\1/p" <<<"$line")"
	done
	echo "$row" | tee -a "$tsv" >>"$cur"
	echo "  $row"
}

echo "ab: $w, $pairs pairs, base $sha vs working tree"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$tree" "$i"
		run change . "$i"
	else
		run change . "$i"
		run base "$tree" "$i"
	fi
done

# Per metric and side: median and quartiles; pairs won by the change (ties
# count for neither side); and the §8 verdict — at least nine tenths of the
# pairs won and medians further apart than the base's own interquartile range.
# (sorted and quantile come from scripts/quantile.awk; the program itself is
# the here-document, read as a second -f.)
awk -F'\t' -v metrics="$metrics" -v self="$self" -f scripts/quantile.awk -f /dev/stdin "$cur" <<'EOF'
{
	nm = split(metrics, name, " ")
	failed[$1] += $3
	for (m = 1; m <= nm; m++) val[$1, m, $2] = $(3 + m)
	if ($2 > pairs) pairs = $2
}
END {
	for (m = 1; m <= nm; m++) {
		higher = (name[m] == "rounds_per_s")
		won = lost = 0
		for (p = 1; p <= pairs; p++) {
			b[p] = val["base", m, p]; c[p] = val["change", m, p]
			if (c[p] == b[p]) continue
			if ((c[p] < b[p]) != higher) won++; else lost++
		}
		sorted(b, pairs, sb); sorted(c, pairs, sc)
		bm = quantile(sb, pairs, 0.5); cm = quantile(sc, pairs, 0.5)
		iqr = quantile(sb, pairs, 0.75) - quantile(sb, pairs, 0.25)
		gain = higher ? cm - bm : bm - cm
		printf "%-13s base   median %-10.4g q1 %-10.4g q3 %-10.4g\n", name[m], bm, quantile(sb, pairs, 0.25), quantile(sb, pairs, 0.75)
		verdict = (won >= 0.9 * pairs && gain > iqr) ? "GAIN" : (lost >= 0.9 * pairs && -gain > iqr) ? "WORSE" : "no claim"
		if (verdict != "no claim") differs = differs " " name[m]
		printf "%-13s change median %-10.4g q1 %-10.4g q3 %-10.4g ratio %.3f  pairs won %d/%d lost %d  %s\n", "", cm, quantile(sc, pairs, 0.25), quantile(sc, pairs, 0.75), (bm ? cm / bm : 0), won, pairs, lost, verdict
		if (self && bm) printf "%-13s noise floor: medians %.1f%% apart, quartiles %.1f%% of the median apart\n", "", 100 * (cm > bm ? cm - bm : bm - cm) / bm, 100 * iqr / bm
	}
	printf "failed        base %d, change %d\n", failed["base"], failed["change"]
	if (self) {
		if (differs == "") print "self: no difference"
		else { print "self: one tree differs from itself on" differs " — this box cannot carry an A/B now"; exit 1 }
	}
}
EOF
