#!/usr/bin/env bash
# loc.sh — design weight per Go package directory.
#
# Usage: ./scripts/loc.sh [dir ...]   (default: the whole repository)
#
# For every directory holding non-test Go files it prints two counts
# over those files: all lines, and code-only lines (blank lines and
# lines that are only a comment left out). Directories named testdata
# and hidden directories (build output among them) are skipped. It is
# informational: no count fails it.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- .

printf '%8s %8s  %s\n' lines code package
find "$@" \( -name testdata -o -name '.*' ! -name . \) -prune \
  -o -type f -name '*.go' ! -name '*_test.go' -printf '%h\n' |
  sed 's|^\./||' | sort -u |
  while read -r dir; do
    files=$(find "$dir" -maxdepth 1 -type f -name '*.go' ! -name '*_test.go' | sort)
    # shellcheck disable=SC2086
    awk '
      { total++ }
      inblock { if (index($0, "*/")) inblock = 0; next }
      /^[ \t]*$/ { next }
      /^[ \t]*\/\// { next }
      /^[ \t]*\/\*/ { if (!index(substr($0, index($0, "/*") + 2), "*/")) inblock = 1; next }
      { code++ }
      END { printf "%8d %8d  ", total, code }
    ' $files
    echo "$dir"
  done
