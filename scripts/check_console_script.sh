#!/usr/bin/env bash
# Smoke test of the installed `ptinertia` console script (ptinertia.cli:entry),
# which no test reaches: every CLI test calls cli.main() in process.
# Needs `ptinertia` on PATH (`pip install -e .`); writes its files under
# $RUNNER_TEMP, or a new temporary directory when that is unset.
# Exits nonzero at the first command or check that fails.
set -euo pipefail
RUNNER_TEMP="${RUNNER_TEMP:-$(mktemp -d)}"

ptinertia catalog verify --all
# every entry is certified exactly: a triple after exact= on all 27 lines
test "$(ptinertia catalog verify --all | grep -cE ' exact=[0-9]+ [0-9]+ [0-9]+ PASS$')" -eq 27
ptinertia table --dims 3 3
ptinertia catalog dump arr13_vi --out "$RUNNER_TEMP/s.txt"
ptinertia verify-ew --file "$RUNNER_TEMP/s.txt" --restarts 3
ptinertia search --dims 3 3 --samples 2000 --seed 1 --alarm "(3,0,6)" --log "$RUNNER_TEMP/runs.log"
ptinertia replay --log "$RUNNER_TEMP/runs.log"
ptinertia catalog verify arr13_xii --tol 1e-9
code=0; ptinertia catalog list --tol 1e-3 || code=$?; test "$code" -eq 2
ptinertia pt --file "$RUNNER_TEMP/s.txt" --out "$RUNNER_TEMP/pt.txt"
test "$(ptinertia inertia --file "$RUNNER_TEMP/pt.txt" --exact)" = "1 5 3"
printf '3 0 0\n1 0+1j 0\n0-1j 1 1\n0 1 1\n' > "$RUNNER_TEMP/cx.txt"
test "$(ptinertia inertia --file "$RUNNER_TEMP/cx.txt" --exact)" = "1 0 2"
test "$(ptinertia schmidt --ket '1|0,0> + 1/2|1,1>' --dims 2 2 | head -1)" = "rank 2"
e=1/1000000000000; printf "4 2 2\n$e 0 0 $e\n0 0 0 0\n0 0 0 0\n$e 0 0 $e\n" > "$RUNNER_TEMP/bell12.txt"
ptinertia verify-ew --file "$RUNNER_TEMP/bell12.txt"
printf '2 0 0\n0 1e-13\n0 0\n' > "$RUNNER_TEMP/tiny.txt"
code=0; ptinertia inertia --file "$RUNNER_TEMP/tiny.txt" || code=$?; test "$code" -eq 2
printf '4 2 2\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n' > "$RUNNER_TEMP/eye.txt"
code=0; ptinertia verify-ew --file "$RUNNER_TEMP/eye.txt" > "$RUNNER_TEMP/eye.out" || code=$?
test "$code" -eq 1
test "$(head -1 "$RUNNER_TEMP/eye.out")" = "inertia 0 0 4"
test "$(tail -1 "$RUNNER_TEMP/eye.out")" = "FAIL"
# finite inputs near the float limit: one error line and no numpy warning on stderr
printf '2 1 2\n1e308 0\n0 1e308\n' > "$RUNNER_TEMP/ovf_trace.txt"
code=0; ptinertia verify-ew --file "$RUNNER_TEMP/ovf_trace.txt" 2> "$RUNNER_TEMP/ovf_trace.err" || code=$?
test "$code" -eq 2
test "$(wc -l < "$RUNNER_TEMP/ovf_trace.err")" -eq 1
printf '2 0 0\n1e308 1e308\n1e308 1e308\n' > "$RUNNER_TEMP/ovf_eig.txt"
code=0; ptinertia inertia --file "$RUNNER_TEMP/ovf_eig.txt" 2> "$RUNNER_TEMP/ovf_eig.err" || code=$?
test "$code" -eq 2
test "$(wc -l < "$RUNNER_TEMP/ovf_eig.err")" -eq 1
ptinertia schmidt --ket '1e308|0,0>+1e308|1,1>' --dims 2 2 2> "$RUNNER_TEMP/ovf_ket.err"
test ! -s "$RUNNER_TEMP/ovf_ket.err"
