#!/usr/bin/env bash
# Smoke-run the installed primegaps entry point; writes scratch files to $1 (default: a temp dir).
set -euo pipefail
tmp=${1:-$(mktemp -d)}
# every CSV row after the manifest line is as long as the header
rows_ok='import csv, sys; h, *r = csv.reader(sys.stdin.read().splitlines()[1:]); sys.exit(not r or any(len(x) != len(h) for x in r))'
primegaps tuple --k 6 --format csv | python -c "$rows_ok"
primegaps weights --n-window 1000 --k 3 --l 1 --big-r 5.6 --format csv | python -c "$rows_ok"
primegaps density --r 3 --eps 0.3 --format csv | python -c "$rows_ok"
# 10000 rows cross the writer's row blocks
primegaps weights --n-window 10000 --k 3 --l 1 --big-r 10 --format csv | python -c "$rows_ok"
primegaps weights --n-window 10000 --k 3 --l 1 --big-r 10 --format csv \
  | python -c 'import sys; sys.exit(len(sys.stdin.read().splitlines()) != 2 + 10000)'
primegaps weights --n-window 10000 --k 3 --l 1 --big-r 10 \
  | python -c 'import json, sys; sys.exit(len(json.load(sys.stdin)["rows"]) != 10000)'
primegaps bv-weighted --n-window 1000 --q-max 5 --alpha 0.5 --f mobius --format csv | python -c "$rows_ok"
# N^(1 - alpha) < 2: the Mobius coefficients are mu(1) alone
primegaps bv-weighted --n-window 1000 --q-max 5 --alpha 0.99 --f mobius --format csv | python -c "$rows_ok"
# a coefficient file listing mu(m) for m <= N^(1 - alpha) = 31 gives the rows of --f mobius
python -c 'mu = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1, -1]
print("\n".join(f"{m} {v}" for m, v in enumerate(mu, 1)))' > "$tmp/mu.txt"
primegaps bv-weighted --n-window 1000 --q-max 5 --alpha 0.5 --f mobius --out "$tmp/mobius.json"
primegaps bv-weighted --n-window 1000 --q-max 5 --alpha 0.5 --f "$tmp/mu.txt" --out "$tmp/mu.json"
python -c 'import json, sys; a, b = (json.load(open(p))["rows"] for p in sys.argv[1:]); sys.exit(a != b)' \
  "$tmp/mobius.json" "$tmp/mu.json"
# a non-integer m in a coefficient file is an error line, not a traceback
printf '2.5 0.3\n' > "$tmp/f-bad.txt"
rc=0; primegaps bv-weighted --n-window 1000 --q-max 5 --alpha 0.5 --f "$tmp/f-bad.txt" 2> "$tmp/f-bad.err" || rc=$?
test "$rc" -eq 1
grep -q "^error:" "$tmp/f-bad.err"
if grep -q "Traceback" "$tmp/f-bad.err"; then exit 1; fi
primegaps bv --n-window 1000 --q-max 5 --out "$tmp/bv.json"
# one integer high up: 2^50 - 3 = 59 * 176329 * 108224111, whose first segment of primes divides out 59 and 176329
primegaps classify --n 1125899906842621 \
  | python -c 'import json, sys; r = json.load(sys.stdin)["results"]; sys.exit((r["omega"], r["is_prime"], r["threshold"]) != (3, 0, 0.7795891719468148))'
# 2 times the prime below 2^49: that prime is trial-divided by the primes up to its square root, one 2^22 segment at a time
primegaps classify --n 1125899906842462 \
  | python -c 'import json, sys; r = json.load(sys.stdin)["results"]; sys.exit((r["omega"], r["is_prime"], r["threshold"]) != (2, 0, 0.9795918367346937))'
# 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657, the largest n classify takes: smooth, so one segment of primes
primegaps classify --n 9223372036854775807 \
  | python -c 'import json, sys; r = json.load(sys.stdin)["results"]; sys.exit((r["omega"], r["is_prime"], r["threshold"]) != (7, 0, 0.8546113942829878))'
# Lemma 2 over five chunks, each sieving the primes of its piece, shared with a forked child when two cores are free
primegaps moments --variant lemma2 --h 2 --n-window 5000000 --k 3 --l 1 --big-r 37 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["empirical"] != 10853347.104558202)'
# Lemma 2 over two chunks, one per process, each with the primes of its piece and no factor table
primegaps moments --variant lemma2 --h 2 --n-window 2000000 --k 3 --l 1 --big-r 37 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["empirical"] != 4607824.207508879)'
# star counts come from the primes of I alone and build no table
primegaps count-star --n-window 5000000 --r 2 --eps 0.3 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["count"] != 76070)'
primegaps count-star --n-window 2000000 --r 2 --eps 0.3 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["count"] != 31594)'
primegaps count-star --n-window 1000000000 --r 2 --eps 0.3 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["count"] != 12236041)'
# a moment window of one chunk over half a chunk: its two halves summed by two processes
primegaps moments --variant lemma1 --n-window 1000000 --k 6 --l 1 --big-r 1000 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["empirical"] != 4436868106.718203)'
# Lemma 1 over three chunks, the first in a forked child when two cores are free
primegaps moments --variant lemma1 --n-window 3000000 --k 3 --l 1 --big-r 41 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["empirical"] != 68050122.97953999)'
# Lemma 1 reads no table: 96 chunks of weights at N = 1e8, with no 0.9 GB factor table
primegaps moments --variant lemma1 --n-window 100000000 --k 3 --l 1 --big-r 100 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["empirical"] != 8121108896.625306)'
# one chunk cut in two halves short of an odd N // 2, where numpy's pairwise sum splits the whole window
primegaps moments --variant lemma1 --n-window 700007 --k 3 --l 1 --big-r 28.9 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["empirical"] != 8560873.0777957)'
primegaps s-stat --n-window 1000003 --k 3 --l 1 --big-r 31.6 --r 2 --eps 0.3 \
  | python -c 'import json, sys; r = json.load(sys.stdin)["results"]; sys.exit((r["empirical"], r["multi_hit_count"]) != (-7902653.613761015, 36133))'
# Lemma 2 over one chunk cut in two halves
primegaps moments --variant lemma2 --h 2 --n-window 1000000 --k 3 --l 1 --big-r 31.6 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["empirical"] != 1765303.8328963881)'
# three chunks with their star rows, the first in a forked child when two cores are free
primegaps s-stat --n-window 3000000 --k 3 --l 1 --big-r 41 --r 2 --eps 0.3 \
  | python -c 'import json, sys; r = json.load(sys.stdin)["results"]; sys.exit((r["empirical"], r["multi_hit_count"]) != (-37671227.59612439, 94686))'
# S over 96 chunks at N = 1e8, each sieving the primes of its piece, with no 0.9 GB factor table
primegaps s-stat --n-window 100000000 --k 3 --l 1 --big-r 100 --r 2 --eps 0.3 \
  | python -c 'import json, sys; r = json.load(sys.stdin)["results"]; sys.exit((r["empirical"], r["multi_hit_count"]) != (-4516277298.196325, 2172658))'
primegaps moments --variant lemma3 --h 2 --n-window 3000000 --k 3 --l 1 --big-r 41 --r 2 --eps 0.3 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["empirical"] != 10127752.214837193)'
primegaps count-star --n-window 3000000 --r 3 --eps 0.3 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["count"] != 4876)'
# the primes <= 2e7 sieved in five 2^22-integer segments and joined in order
primegaps bv --n-window 20000000 --q-max 10 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["total"] != 2358.6260517119663)'
# 500 passes over the 78498 primes <= 1e6, shared with a forked child when two cores are free
primegaps bv --n-window 1000000 --q-max 1000 \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["total"] != 27509.77015393265)'
# 15 passes over the dense g(n) = sum of mu(m) over n = m p <= 1e6, shared with a forked child when two cores are free
primegaps bv-weighted --n-window 1000000 --q-max 30 --alpha 0.5 --f mobius \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["total"] != 56838.91398688033)'
# mu(m) for m <= 4e6^0.95 = 1,870,496, struck in two 2^20 chunks by the primes up to its square root
primegaps bv-weighted --n-window 4000000 --q-max 5 --alpha 0.05 --f mobius \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["total"] != 52575.94831373719)'
# non-integer f(m) = cos m: the q = 1 total of g adds g(n) in increasing n
python -c 'import math; print("\n".join(f"{m} {math.cos(m)!r}" for m in range(1, 1001)))' > "$tmp/cos.txt"
primegaps bv-weighted --n-window 1000000 --q-max 1 --alpha 0.5 --f "$tmp/cos.txt" \
  | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["results"]["total"] != 9.523503831481094)'
# an inadmissible tuple (its predicted main terms are 0) is an error line, not a traceback
printf '0,1,2\n' > "$tmp/inadmissible.txt"
rc=0; primegaps moments --variant lemma1 --n-window 1000 --tuple-file "$tmp/inadmissible.txt" --l 1 --big-r 5 \
  2> "$tmp/inadmissible.err" || rc=$?
test "$rc" -eq 1
grep -q "^error:" "$tmp/inadmissible.err"
if grep -q "Traceback" "$tmp/inadmissible.err"; then exit 1; fi
rc=0; primegaps s-stat --n-window 1000 --k 3 --l 1 --big-r 5 --h 5 2> "$tmp/usage.err" || rc=$?
test "$rc" -eq 2
grep -q "primegaps s-stat: error:" "$tmp/usage.err"
# a prime sieve larger than physical memory is refused with an error line, not a traceback
for cmd in "singular-series --k 3 --p-max 100000000000" "count-star --n-window 1000000000000000 --r 2 --eps 0.99"; do
  rc=0; primegaps $cmd 2> "$tmp/oversized.err" || rc=$?
  test "$rc" -eq 1
  grep -q "^error:" "$tmp/oversized.err"
  if grep -q "Traceback" "$tmp/oversized.err"; then exit 1; fi
done
