#!/bin/sh
# Prints the recipe of one Makefile target as one shell command line, so a
# script can run or inspect exactly what make would, from the one copy in
# the Makefile:
#
#   eval "$(sh scripts/recipe.sh budgets)"
#
# Make runs each recipe line in a shell of its own and stops at the first
# that fails, so separate lines are joined with " && "; a line continued
# with a backslash is joined to the next with a space. A leading @ (make's
# "do not echo") is dropped, $$ (make's escaped $) becomes $, and $(GO) is
# spelled go.
set -eu

cd "$(dirname "$0")/.."
awk -v t="$1:" '
    $1 == t { on = 1; next }
    on && /^\t/ {
        line = substr($0, 2)
        if (cont) {
            sub(/^[ \t]+/, "", line)
            printf " "
        } else {
            sub(/^@/, "", line)
            if (n++) printf " && "
        }
        cont = sub(/[ \t]*\\$/, "", line)
        printf "%s", line
        next
    }
    on { exit }
    END { if (n) print "" }' Makefile | sed -e 's/\$(GO)/go/g' -e 's/\$\$/$/g'
