#!/bin/sh
# End-to-end probes of the bbp command line: known answers, routes that must
# agree, and refusals with their exit codes.  Any failed probe stops the
# script with a nonzero exit.
#
#   sh tools/cli_probes.sh                      # the installed `bbp`
#   PYTHONPATH=src BBP="python3.13 -m bbp.cli" PYTHON=python3.13 sh tools/cli_probes.sh
#
# BBP is the command (default `bbp`) and PYTHON the interpreter that runs
# `-m bbp.cli` (default `python`).  BBP is split on spaces.
set -eu
BBP=${BBP:-bbp}
PYTHON=${PYTHON:-python}

$BBP prob -m 365 -n 23 -r 1 --algo column --format float
test "$($BBP nmax -m 365 -r 1)" = 22
test "$($PYTHON -m bbp.cli nmax -m 365 -r 1)" = 22
test "$($BBP nmax -m 1000 -r 10)" = 3334
test "$($BBP nmax -m 50 -r 100)" = 4009
test "$($BBP count -m 50 -n 120 -r 3 --algo column)" = "$($BBP count -m 50 -n 120 -r 3 --algo stirling)"
test "$($BBP prob -m 100 -n 200 -r 3 --algo day)" = "$($BBP prob -m 100 -n 200 -r 3 --algo direct)"
test "$($BBP table --format csv)" = "$($BBP table --days 10,25,50,100,200,365,500,1000 --max-per-day 1..10 --format csv)"
test "$($BBP count -m 50 -n 120 -r 3 --algo day)" = "$($BBP count -m 50 -n 120 -r 3)"
test "$($BBP xcheck --max-days 8 --max-people 12 --max-per-day 3)" = "instances=312 oracle=312 divergences=0"
test "$($BBP count -m 5 -n 3 -r 20000000 --algo column)" = 125
test "$($BBP prob -m 1 -n 20000 -r 20000 --algo brute)" = 1/1
test "$($BBP prob -m 1000 -n 1000 -r 1 --algo brute)" = "$($BBP prob -m 1000 -n 1000 -r 1 --algo column)"
code=0; timeout 20 $BBP prob -m 200 -n 3000 -r 1000 --algo brute >/dev/null 2>&1 || code=$?; test "$code" = 2
code=0; timeout 20 $BBP prob -m 2 -n 2000000 -r 1000100 --algo brute >/dev/null 2>&1 || code=$?; test "$code" = 2
code=0; timeout 10 $BBP prob -m 20000 -n 30000 -r 2 --algo brute >/dev/null 2>&1 || code=$?; test "$code" = 2
code=0; $BBP nmax -m 0 -r 1 >/dev/null 2>&1 || code=$?; test "$code" = 1
code=0; timeout 10 $BBP prob -m 5 -n 3 -r 1 --format dec --digits 300000000 >/dev/null 2>&1 || code=$?; test "$code" = 2
test "$($BBP prob -m 50 -n 2000 -r 100)" = "$($BBP prob -m 50 -n 2000 -r 100 --algo column)"
$BBP prob --help >/dev/null
test "$($BBP table --format csv --jobs 2)" = "$($BBP table --format csv --jobs 1)"
test "$($BBP stirling -n 30 -k 7)" = "$($BBP stirling -n 30 -k 7 -r 30)"
test "$($BBP stirling -n 12 -k 4 -r 3)" = 15400  # {k r, k} = (k r)! / (r!^k k!)
code=0; timeout 10 $BBP stirling -n 100000 -k 50000 -r 3 >/dev/null 2>&1 || code=$?; test "$code" = 2
test "$(timeout 10 $BBP stirling -n 2000 -k 1000 -r 2000)" = "$(timeout 10 $BBP stirling -n 2000 -k 1000)"  # r >= n - k + 1
test "$(timeout 10 $BBP stirling -n 1000000000000 -k 999999999999 -r 2)" = 499999999999500000000000  # C(n, 2)
$PYTHON -c "import sys, bbp.cli; loaded = {'bbp.oracles', 'bbp.xcheck'} & set(sys.modules); assert not loaded, loaded"
$PYTHON -c "from bbp.solvers import DayContext, CountingContext, StirlingContext, prob_bruteforce"
test "$($BBP nmax -m 30 -r 100 --gamma 1/100000000000000000000000000000000000000000)" = 3000
test "$($BBP table --days 10000 --max-per-day 5 --gamma 9999999999999999999999999/10000000000000000000000000 --float-above 1 --format csv)" = "$(printf 'r\\m,10000\n5,5')"
test "$($BBP table --days 365,500 --max-per-day 9,10 --float-above 1 --format csv)" = "$($BBP table --days 365,500 --max-per-day 9,10 --format csv)"
echo "cli probes: all passed"
