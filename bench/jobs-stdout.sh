#!/usr/bin/env bash
# Writes the stdout of every spark-submit entrypoint (repro.jobs.Table*) to
# <outdir>/<Table>.out, at REPRO_SF=0.01 on a fixed SPARK_MASTER=local[4]
# (the table values depend on the Spark thread count). Run it on two
# checkouts and `cmp` the files to check that a change keeps every table's
# answers; EXPERIMENTS.md names the columns that move with wall-clock
# decompression timings. Spark's log goes to stderr.
#
#   bench/jobs-stdout.sh <outdir>    builds and runs the checkout it lives in
set -euo pipefail
out=$(mkdir -p "${1:?usage: bench/jobs-stdout.sh <outdir>}" && cd "$1" && pwd)
cd "$(dirname "$0")/.."
export SPARK_DRIVER_MEM=${SPARK_DRIVER_MEM:-4g} REPRO_SF=0.01 SPARK_MASTER='local[4]'

# The JVM options `sbt run` forks with (one "* <option>" line each), then the classpath.
sbt_out=$(sbt -batch -error "print Compile/run/javaOptions" "export Runtime/fullClasspath")
mapfile -t lines <<< "$sbt_out"
opts=()
for l in "${lines[@]}"; do [[ $l == "* "* ]] && opts+=("${l#\* }"); done
cp=${lines[-1]}

for t in TableII TableIII_IV TableV TableVI TableVII_VIII TableIX TableX TableXI; do
  echo "== $t" >&2
  java "${opts[@]}" -cp "$cp" "repro.jobs.$t" > "$out/$t.out"
done
