#!/bin/sh
# Build the benchmark from the sources of this checkout, then run one
# workload: sh perfbench/run.sh --workload W --seed S --seconds T --trace 0|1
# Must be started from the root of the checkout.
set -e
dune build --root . --cache=disabled --display=quiet ./perfbench/perf.exe 1>&2
exec ./_build/default/perfbench/perf.exe run "$@"
