#!/usr/bin/env bash
# Build the sanitizer trees and run the `smoke` ctest label in each, so every
# change runs the same set under AddressSanitizer, UndefinedBehaviorSanitizer
# and ThreadSanitizer.
#
#   tools/sanitize.sh [-j N] [address|undefined|thread ...]
#
# With no sanitizer named, all three run. Trees go to build-asan/,
# build-ubsan/ and build-tsan/ at the repository root (gitignored) and are
# rebuilt in place on later runs. -j sets the build and ctest parallelism
# (default: nproc). Exits nonzero when any tree fails to build or any smoke
# test fails; the summary at the end names which.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc)
if [[ ${1:-} == -j ]]; then
  jobs=$2
  shift 2
fi
sanitizers=("$@")
if [[ ${#sanitizers[@]} -eq 0 ]]; then
  sanitizers=(address undefined thread)
fi

# UBSan only reports by default; make a finding fail the test. TSan and
# ASan already exit nonzero on a report.
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}
export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1}

failed=()
for san in "${sanitizers[@]}"; do
  case $san in
    address) dir=$root/build-asan ;;
    undefined) dir=$root/build-ubsan ;;
    thread) dir=$root/build-tsan ;;
    *)
      echo "sanitize.sh: unknown sanitizer '$san' (address, undefined, thread)" >&2
      exit 2
      ;;
  esac
  echo "== $san: $dir"
  if ! cmake -B "$dir" -S "$root" -DTPI_SANITIZE="$san" >/dev/null ||
     ! cmake --build "$dir" -j "$jobs"; then
    failed+=("$san (build)")
    continue
  fi
  if ! ctest --test-dir "$dir" -L smoke --output-on-failure -j "$jobs"; then
    failed+=("$san (smoke)")
  fi
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "sanitize.sh: FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "sanitize.sh: smoke label clean under: ${sanitizers[*]}"
