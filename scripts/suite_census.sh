#!/bin/sh
# Suite census: the seeded suites (make chaos, storm, …) select their tests
# by name, so a renamed test drops out of its suite without anything
# failing. For each suite target this reads the -run regex and the package
# list straight from the Makefile recipe (one source of truth, read by
# scripts/recipe.sh), asks
# `go test -list` how many tests they match, and prints "suite count".
# With scripts/suite_floor.txt present it exits non-zero when any suite
# matches fewer tests than its recorded floor — raise a floor when a suite
# grows, lower it only together with a CHANGES.md line that says which
# tests went and what covers them now.
#
# The floor file's "test-sleeps" line is the other way round: a ceiling
# on the time.Sleep( calls in the cmd/ and internal/ test files. The
# census fails when the count rises above it; lower it when sleeps go,
# never raise it.
#
#   scripts/suite_census.sh            # print the census, gate on floors
#   scripts/suite_census.sh > floors   # re-record (then review the diff)
set -eu

cd "$(dirname "$0")/.."
floors=scripts/suite_floor.txt
fail=0

for suite in chaos storm torture qos elastic blackout grayfail; do
    recipe="$(sh scripts/recipe.sh "$suite")"
    run="$(printf '%s\n' "$recipe" | sed -n "s/.*-run '\([^']*\)'.*/\1/p")"
    pkgs="$(printf '%s\n' "$recipe" | tr ' \t' '\n\n' | grep '^\./' | tr '\n' ' ')"
    if [ -z "$run" ] || [ -z "$pkgs" ]; then
        echo "suite_census: cannot read the -run regex or packages of 'make $suite'" >&2
        exit 2
    fi
    # shellcheck disable=SC2086 # pkgs is a word list on purpose
    count="$(go test -list "$run" $pkgs | grep -c '^Test' || true)"
    echo "$suite $count"
    if [ -f "$floors" ]; then
        floor="$(awk -v s="$suite" '$1 == s { print $2 }' "$floors")"
        if [ -z "$floor" ]; then
            echo "suite_census: no floor recorded for $suite in $floors" >&2
            fail=1
        elif [ "$count" -lt "$floor" ]; then
            echo "suite_census: $suite matches $count tests, floor is $floor — a renamed or deleted test fell out of the suite" >&2
            fail=1
        fi
    fi
done

sleeps="$(grep -r --include='*_test.go' -o 'time\.Sleep(' cmd internal | wc -l | tr -d ' ')"
echo "test-sleeps $sleeps"
if [ -f "$floors" ]; then
    ceiling="$(awk '$1 == "test-sleeps" { print $2 }' "$floors")"
    if [ -z "$ceiling" ]; then
        echo "suite_census: no test-sleeps ceiling recorded in $floors" >&2
        fail=1
    elif [ "$sleeps" -gt "$ceiling" ]; then
        echo "suite_census: test files call time.Sleep $sleeps times, ceiling is $ceiling — wait on an event instead" >&2
        fail=1
    fi
fi
exit $fail
