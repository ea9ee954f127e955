#!/bin/sh
# green_automl_cli parses every flag by the knob rule (common/knobs.h):
# a malformed value exits 2 with "<flag>: <reason>" before any work runs.
# Usage: cli_flags_test.sh path/to/green_automl_cli
cli="$1"
status=0
check() {
  expected="$1"
  shift
  out=$("$cli" "$@" 2>&1)
  code=$?
  case "$out" in
    "$expected"*) ;;
    *) echo "FAIL: $*: got '$out'"; status=1 ;;
  esac
  if [ "$code" -ne 2 ]; then
    echo "FAIL: $*: exit $code, want 2"
    status=1
  fi
}
check "--serve-batch-delay-ms: 'nan' is not a number" --serve-batch-delay-ms nan
check "--transform-cache: '2' is not 0 or 1" --transform-cache 2
check "--cores: 'abc' is not an integer" --cores abc
check "--jobs: '99999999999x' is not an integer" --jobs 99999999999x
check "--cell-timeout: '1e3s' is not a number" --cell-timeout 1e3s
check "--serve-shed: unknown shed policy" --serve-shed bad
check "--shard: " --shard 3/2
check "--task: " --task foo
check "--budgets: 'abc' is not a number" --sweep caml --budgets 10,abc
check "unknown flag: --bogus" --bogus
exit $status
