#!/bin/sh
# Tier-1 verification for this repository: gofmt + vet + build + race-enabled
# tests + the allocation budgets (which skip under the race detector, so
# they get a run without it) + the suite census (no name-selected suite lost
# a test) + vet/test of the bench/ module, which `./...` does not enter.
# Equivalent to `make verify`; kept as a script for environments without make.
set -eu

cd "$(dirname "$0")/.."

echo ">> gofmt -l"
unformatted="$(gofmt -l cmd internal examples bench_test.go doc.go)"
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo ">> go vet ./..."
go vet ./...

echo ">> go build ./..."
go build ./...

echo ">> go test -race ./..."
go test -race ./...

echo ">> allocation budgets (no race detector)"
# The test filter and packages are the Makefile's budgets recipe, run from
# there so a new pin cannot be selected by one copy and missed by another.
budgets="$(sh scripts/recipe.sh budgets)"
if [ -z "$budgets" ]; then
    echo "verify: cannot read the recipe of 'make budgets'" >&2
    exit 2
fi
eval "$budgets"

echo ">> suite census"
sh scripts/suite_census.sh

echo ">> bench/ module: go vet + go test"
go vet -C bench ./...
go test -C bench ./...

echo "verify: OK"
