#!/usr/bin/env bash
# Byte-for-byte reproduction gate for one figure bench.
#
#   bench/golden_check.sh <bench-binary> <golden-dir>           # compare
#   bench/golden_check.sh --update <bench-binary> <golden-dir>  # regenerate
#
# Runs the binary at --iters-scale=0.02 in a fresh temporary directory and
# compares its stdout with <golden-dir>/<name>.stdout and the BENCH_<name>.json
# it writes with <golden-dir>/BENCH_<name>.json.  The comparison is exact: no
# tolerance, no masked columns.  Every bench under this gate runs in the
# deterministic TimingOnly model, so any difference is a change in modeled
# time, counters or the printed tables.
set -euo pipefail

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
[ $# -eq 2 ] || { echo "usage: $0 [--update] <bench-binary> <golden-dir>" >&2; exit 2; }
bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
golden=$2
name=$(basename "$bin")

work=$(mktemp -d "${TMPDIR:-/tmp}/polypart-golden.XXXXXX")
trap 'rm -rf "$work"' EXIT
(cd "$work" && "$bin" --iters-scale=0.02 > "$name.stdout")

if [ "$update" -eq 1 ]; then
  mkdir -p "$golden"
  cp "$work/$name.stdout" "$work/BENCH_$name.json" "$golden/"
  echo "updated $golden/$name.stdout and $golden/BENCH_$name.json"
  exit 0
fi

status=0
for f in "$name.stdout" "BENCH_$name.json"; do
  if ! cmp -s "$golden/$f" "$work/$f"; then
    echo "golden mismatch: $f differs from $golden/$f" >&2
    diff -u "$golden/$f" "$work/$f" >&2 || true
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "$name: stdout and BENCH_$name.json match the goldens"
exit "$status"
