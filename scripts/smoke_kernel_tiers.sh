#!/usr/bin/env bash
# Kernel-tier byte parity: a release sweep forced onto the scalar
# kernels (with single-sample eval batches) and one forced onto the
# lane-packed tier (with an odd batch shape) must emit byte-identical
# reports to the auto-dispatched run. Lane-packed and batched kernels
# are pure reassociations of exact integer arithmetic, so any differing
# byte is a real kernel bug, not float noise.
set -euo pipefail
MATIC=${MATIC:-./target/release/matic}

"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --threads 4 --quiet --out sweep-auto.json
MATIC_KERNEL=scalar MATIC_EVAL_CHUNK=1 \
  "$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --threads 1 --quiet --out sweep-scalar.json
MATIC_KERNEL=lanes MATIC_EVAL_CHUNK=7 \
  "$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --threads 2 --quiet --out sweep-lanes.json
cmp sweep-auto.json sweep-scalar.json
cmp sweep-auto.json sweep-lanes.json

# The same three legs on the clock-stress axis: timing-error drops are
# folded into the composed weights as zero words, so they run on the
# same tiered kernels and must stay byte-identical too.
"$MATIC" sweep --chips 2 --clock-stress 0.4,0.8 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --threads 4 --quiet --out sweep-clock-auto.json
MATIC_KERNEL=scalar MATIC_EVAL_CHUNK=1 \
  "$MATIC" sweep --chips 2 --clock-stress 0.4,0.8 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --threads 1 --quiet --out sweep-clock-scalar.json
MATIC_KERNEL=lanes MATIC_EVAL_CHUNK=7 \
  "$MATIC" sweep --chips 2 --clock-stress 0.4,0.8 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --threads 2 --quiet --out sweep-clock-lanes.json
cmp sweep-clock-auto.json sweep-clock-scalar.json
cmp sweep-clock-auto.json sweep-clock-lanes.json
