#!/usr/bin/env bash
# The console-script checks: every command calls the `gapcert` found on PATH
# (the installed entry point the README's examples call) and writes its inputs
# to $RUNNER_TEMP.  Run as `RUNNER_TEMP=<dir> bash tools/ci_console.sh`; exits 0
# when every check passes.
#
# The README's Stokes file (JSON and CSV), a 2x2 Kirsch pair (C = A; all methods and kirsch
# alone), a zero block B rules out (exit 3) and a B whose rows hold as many
# numbers as B needs but not two a row (exit 2, the row-by-row reread);
# last, a mass whose dispersion and a t whose 4x4 overflow the float range (exit 3).
# The Kirsch pair under `stokes` and the Stokes file under `--method kirsch` lack
# the form each needs (C = 0, C bit-equal to A): exit 3.
# At the ends of the float range: on 1x1 blocks of 1e-310 zero-dichotomy's result is
# not finite (exit 3) and --method all prints strict JSON with it skipped; blocks of
# 1.5e308 I exit 3.
# m = 9, c = 0.9 puts the smallest secular root on the bisection fallback,
# and spurious and stable-gap run once each (no benchmark workload sends spurious);
# counterexamples runs in both formats (exit 0) before its overflow case.
# Each chain-model regime refuses with exit 3: the spurious pair past c = 1, the
# secular equation at c = 0, a chain of one site, and a 2c past the float range;
# a mass whose band top (1 + c)^2 overflows is refused by secular and stable-gap
# with its one error line on stderr, before the root solve warns of anything.
# One command a line: under bash -e a failure before the last && of a list
# does not stop the script
set -e
gapcert model verify
gapcert model modified -m 50 -c 0.5 > /dev/null
gapcert model secular -m 40 -c 0.5 > /dev/null
gapcert model scan -m 20 --M 0.5,1.5 --delta 0.2 > /dev/null
gapcert model secular -m 9 -c 0.9 > /dev/null
gapcert model spurious -m 30 -c 0.5 > /dev/null
gapcert model stable-gap -m 300 -c 0.7 > /dev/null
printf 'A\n2 2\n1 0\n0 1\nB\n2 1\n1\n0\nC\nzero 1\n' > "$RUNNER_TEMP/stokes.txt"
printf 'A\n2 2\n2 -1\n-1 2\nB\n2 2\n1 0\n0 1\nC\n2 2\n2 -1\n-1 2\n' > "$RUNNER_TEMP/kirsch.txt"
printf 'A\n2 2\n1 0\n0 1\nB\n2 1\n1\n0\nC\nzero 2500\n' > "$RUNNER_TEMP/mismatch.txt"
printf 'A\n2 2\n1 0\n0 1\nB\n2 2\n1 0 0\n1\nC\nzero 2\n' > "$RUNNER_TEMP/misdistributed.txt"
gapcert stokes "$RUNNER_TEMP/stokes.txt" --method all > /dev/null
gapcert stokes "$RUNNER_TEMP/stokes.txt" --format csv > /dev/null
gapcert bounds "$RUNNER_TEMP/stokes.txt" --method all > /dev/null
gapcert bounds "$RUNNER_TEMP/kirsch.txt" --method all > /dev/null
gapcert bounds "$RUNNER_TEMP/kirsch.txt" --method kirsch > /dev/null
rc=0; gapcert stokes "$RUNNER_TEMP/kirsch.txt" || rc=$?; test "$rc" -eq 3
rc=0; gapcert bounds "$RUNNER_TEMP/stokes.txt" --method kirsch || rc=$?; test "$rc" -eq 3
rc=0; gapcert bounds "$RUNNER_TEMP/mismatch.txt" --method all || rc=$?; test "$rc" -eq 3
rc=0; gapcert bounds "$RUNNER_TEMP/misdistributed.txt" --method all || rc=$?; test "$rc" -eq 2
rc=0; gapcert model secular -m 10 -c 1e160 || rc=$?; test "$rc" -eq 3
rc=0; gapcert model spurious -m 30 -c 1.5 || rc=$?; test "$rc" -eq 3
rc=0; gapcert model secular -m 5 -c 0 || rc=$?; test "$rc" -eq 3
rc=0; gapcert model stable-gap -m 1 -c 0.5 || rc=$?; test "$rc" -eq 3
rc=0; gapcert model verify -m 3 -c 9e307 || rc=$?; test "$rc" -eq 3
rc=0; gapcert model secular -m 3 -c 9e307 2> "$RUNNER_TEMP/err.txt" || rc=$?; test "$rc" -eq 3; test "$(wc -l < "$RUNNER_TEMP/err.txt")" -eq 1
rc=0; gapcert model stable-gap -m 3 -c 9e307 2> "$RUNNER_TEMP/err.txt" || rc=$?; test "$rc" -eq 3; test "$(wc -l < "$RUNNER_TEMP/err.txt")" -eq 1
gapcert counterexamples > /dev/null
gapcert counterexamples --format json --t-range 5:20:31 > /dev/null
rc=0; gapcert counterexamples --t-range 1e150:1e160:3 || rc=$?; test "$rc" -eq 3
printf 'A\n1 1\n1e-310\nB\n1 1\n1e-310\nC\n1 1\n1e-310\n' > "$RUNNER_TEMP/tiny.txt"
printf 'A\n2 2\n1.5e308 0\n0 1.5e308\nB\n2 2\n1.5e308 0\n0 1.5e308\nC\n2 2\n1.5e308 0\n0 1.5e308\n' > "$RUNNER_TEMP/huge.txt"
rc=0; gapcert bounds "$RUNNER_TEMP/tiny.txt" --method zero-dichotomy || rc=$?; test "$rc" -eq 3
gapcert bounds "$RUNNER_TEMP/tiny.txt" --method all | python -c 'import json, sys; json.load(sys.stdin, parse_constant=lambda c: sys.exit(c))'
rc=0; gapcert bounds "$RUNNER_TEMP/huge.txt" || rc=$?; test "$rc" -eq 3
