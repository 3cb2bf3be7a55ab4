#!/usr/bin/env sh
# Non-test Go lines per package — the two counts the line targets in
# ROADMAP.md are stated in: every line (as `cat *.go | wc -l` over the
# package's non-test files), and code lines, which leave out blank lines
# and lines holding only a // comment. Reports only; nothing gates on it.
#
# Usage: scripts/loc.sh [package dir ...]  (from the repository root;
# default: every package of the module, then the total)
set -eu
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
  set -- $(go list -f '{{.Dir}}' ./... | sed -e "s|^$PWD/||" -e "s|^$PWD\$|.|")
fi
printf '%-28s %7s %7s\n' package cat code
total=0
totalCode=0
for dir in "$@"; do
  files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
  [ -n "$files" ] || continue
  # shellcheck disable=SC2086 # one word per file: the paths have no spaces
  all=$(cat $files | wc -l)
  # shellcheck disable=SC2086
  code=$(cat $files | grep -cvE '^[[:space:]]*(//.*)?$' || true)
  printf '%-28s %7d %7d\n' "$dir" "$all" "$code"
  total=$((total + all))
  totalCode=$((totalCode + code))
done
printf '%-28s %7d %7d\n' total "$total" "$totalCode"
