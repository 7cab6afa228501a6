#!/usr/bin/env bash
# Prints the non-test line count under crates/: for every
# crates/*/src/**/*.rs, the lines before its first column-0 `#[cfg(test)]`
# (the whole file when it has none). Reporting only; it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' -print0 \
  | xargs -0 awk '
      FNR == 1 { counting = 1 }
      /^#\[cfg\(test\)\]/ { counting = 0 }
      counting { n++ }
      END { print n + 0 }' \
  | awk '{ total += $1 } END { print total + 0 }'
