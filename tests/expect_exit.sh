#!/usr/bin/env bash
# Runs a command and passes only if it exits with exactly the given code.
# "Non-zero" is not enough for a gate's own failure modes: a crash or a
# gate verdict (exit 1) must not pass for a usage/input error (exit 2).
#
# Usage: expect_exit.sh <code> <command> [args...]
expected="$1"
shift
"$@"
status=$?
if [ "${status}" -ne "${expected}" ]; then
  echo "expect_exit: '$*' exited ${status}, expected ${expected}" >&2
  exit 1
fi
