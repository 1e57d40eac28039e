#!/bin/sh
# Prints the recipe of one Makefile target on one line — its tab-indented
# lines, continuations joined, $(GO) spelled go — so a script can run or
# inspect exactly what make would, from the one copy in the Makefile:
#
#   eval "$(sh scripts/recipe.sh budgets)"
set -eu

cd "$(dirname "$0")/.."
awk -v t="$1:" '
    $1 == t { on = 1; next }
    on && /^\t/ { sub(/\\$/, ""); printf "%s ", $0; next }
    on { exit }' Makefile | sed 's/\$(GO)/go/g'
