#!/bin/sh
# Tier-1 verification for this repository, for environments without make:
# runs the recipe of every prerequisite of `make verify`, in order, read
# from the Makefile (scripts/recipe.sh), so the gofmt paths, the budgets
# filter and the bench/ module commands live in one place only.
set -eu

cd "$(dirname "$0")/.."
targets="$(awk '$1 == "verify:" { $1 = ""; print; exit }' Makefile)"
if [ -z "$targets" ]; then
    echo "verify: cannot read the prerequisites of 'make verify'" >&2
    exit 2
fi
for target in $targets; do
    echo ">> make $target"
    recipe="$(sh scripts/recipe.sh "$target")"
    if [ -z "$recipe" ]; then
        echo "verify: cannot read the recipe of 'make $target'" >&2
        exit 2
    fi
    # `|| exit` because set -e does not stop inside an && list.
    eval "$recipe" || exit 1
done
echo "verify: OK"
