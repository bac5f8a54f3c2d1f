# Reads `go test -bench` output (any -count) and prints, per benchmark and
# per unit it reports, the median over its runs — the statistic DESIGN.md's
# stage tables state. Driven by `make bench-stages`, after quantile.awk.
/^cpu:/ && !cpu++ { print }
/^pkg:/ { pkg = $2; sub(/.*\//, "", pkg) }
/^Benchmark/ {
	name = pkg "." $1
	for (i = 3; i < NF; i += 2) {
		key = name "\t" $(i + 1)
		if (!(key in runs)) order[++keys] = key
		vals[key, ++runs[key]] = $i + 0
	}
}
END {
	for (k = 1; k <= keys; k++) {
		key = order[k]; n = runs[key]
		for (i = 1; i <= n; i++) run[i] = vals[key, i]
		sorted(run, n, asc)
		split(key, part, "\t")
		printf "%-58s %14.2f %-18s median of %d\n", part[1], quantile(asc, n, 0.5), part[2], n
	}
}
