# The order statistics scripts/ab.sh's summary and scripts/medians.awk share;
# each loads this file with its own `-f`.

# sorted fills dst[1..n] with src[1..n] in ascending order (insertion sort).
function sorted(src, n, dst,    i, j, v) {
	for (i = 1; i <= n; i++) {
		v = src[i]
		for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
		dst[j + 1] = v
	}
}

# quantile returns the q-quantile of the sorted a[1..n], interpolating
# linearly between neighbours (q = 0.5: the median).
function quantile(a, n, q,    h, lo) {
	h = (n - 1) * q; lo = int(h)
	return lo + 1 >= n ? a[n] : a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1])
}
