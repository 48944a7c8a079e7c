#!/usr/bin/env bash
# Linker-proved dead-code census of src/.
#
#   tools/dead_code.sh [BUILD_DIR]     # default /tmp/pagoda_dead_code
#
# Builds the top-level project and perfbench/ (from its own CMakeLists.txt) at
# -O0 -fno-inline -ffunction-sections -fkeep-inline-functions, links every
# binary with -Wl,--gc-sections, and compares symbols: a src/ function whose
# section survives in a linked binary is reached by it. Header-inline code is
# counted too: -fkeep-inline-functions emits every inline function of every
# src/ header (each header is also compiled on its own, so a header that no
# src/ .cpp includes is not skipped).
#
# Only names in namespace pagoda are counted (mangled _ZN6pagoda/_ZNK6pagoda);
# constructors, destructors, lambdas, compiler clones (.cold, .isra, coroutine
# .actor/.destroy parts) and std instantiations are skipped.
#
# The census fails on
#   (1) any src/ function that no binary reaches, tests included;
#   (2) any out-of-line src/ function (nm type T) that only tests reach,
#       unless tools/dead_code.allow lists it ("<mangled name> <reason>");
#   (3) an allowlist entry that no longer names such a function.
# An inline function that only tests reach is not flagged: an accessor is a
# test's window onto state that ships.
#
# Limits: a template that is never instantiated emits no symbol, so the
# census cannot see it; a constexpr function used only in constant
# expressions has no caller at run time, so it shows as unreached and must be
# deleted or allowlisted. Virtual functions count as reached whenever their
# vtable survives.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

cd "$(dirname "$0")/.."
out=${1:-/tmp/pagoda_dead_code}
jobs=$(nproc 2>/dev/null || echo 4)
flags="-O0 -fno-inline -ffunction-sections -fkeep-inline-functions"

mkdir -p "${out}"
out=$(cd "${out}" && pwd)
for proj in main perfbench; do
  src=.
  [[ "${proj}" == perfbench ]] && src=perfbench
  echo "==> dead-code census: build ${proj} (${out}/${proj})"
  cmake -S "${src}" -B "${out}/${proj}" -DCMAKE_BUILD_TYPE=None \
      -DCMAKE_CXX_FLAGS="${flags}" \
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
      -DCMAKE_GTEST_DISCOVER_TESTS_DISCOVERY_MODE=PRE_TEST \
      --no-warn-unused-cli >/dev/null
  cmake --build "${out}/${proj}" -j "${jobs}" >/dev/null
done

echo "==> dead-code census: compile each src/ header alone"
rm -rf "${out}/headers"  # a deleted header leaves no stale object
mkdir -p "${out}/headers"
find src -name '*.h' | sort | xargs -P "${jobs}" -I{} sh -c \
  'o="$1/headers/$(echo "$2" | tr / _).o"
   echo "#include \"$2\"" |
     c++ -std=c++20 ${3} -I src -x c++ -c - -o "${o}"' _ "${out}" {} "${flags}"

# Prints the counted function names defined in (or linked into) the files.
pagoda_syms() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ {print $3}' | grep -E '^_ZNK?6pagoda' |
    grep -vE '\.|Ul|C[123]E|C[123]I|CI[12]|D[012]Ev' |
    sort -u || true
}

shipped=()
for d in tools bench examples; do
  while IFS= read -r f; do shipped+=("${f}"); done < <(
    find "${out}/main/${d}" -maxdepth 1 -type f -perm -u+x | sort)
done
shipped+=("${out}/perfbench/perfbench_driver")
mapfile -t tests < <(find "${out}/main/tests" -maxdepth 1 -type f -perm -u+x |
                     sort)
mapfile -t libs < <(find "${out}/main/src" -name '*.a' | sort)

work="${out}/census"
mkdir -p "${work}"
pagoda_syms "${libs[@]}" "${out}"/headers/*.o >"${work}/defined"
nm --defined-only "${libs[@]}" 2>/dev/null |
  awk '$2 == "T" {print $3}' | sort -u >"${work}/out_of_line"
pagoda_syms "${shipped[@]}" >"${work}/shipped"
pagoda_syms "${tests[@]}" >"${work}/tests"

comm -23 "${work}/defined" "${work}/shipped" >"${work}/unshipped"
comm -23 "${work}/unshipped" "${work}/tests" >"${work}/unreached"
comm -12 "${work}/unshipped" "${work}/tests" |
  comm -12 - "${work}/out_of_line" >"${work}/test_only"
{ grep -vE '^\s*(#|$)' tools/dead_code.allow || true; } | awk '{print $1}' |
  sort -u >"${work}/allowed"
comm -23 "${work}/test_only" "${work}/allowed" >"${work}/test_only_new"
comm -13 "${work}/test_only" "${work}/allowed" >"${work}/stale"

echo "    ${#shipped[@]} shipped binaries, ${#tests[@]} test binaries," \
  "$(wc -l <"${work}/defined") src/ functions counted"
status=0
report() {
  local file="$1" what="$2"
  [[ -s "${file}" ]] || return 0
  echo "error: ${what}:" >&2
  c++filt <"${file}" | sed 's/^/    /' >&2
  status=1
}
report "${work}/unreached" "src/ functions that no binary reaches"
report "${work}/test_only_new" \
  "out-of-line src/ functions that only tests reach (not in tools/dead_code.allow)"
report "${work}/stale" \
  "tools/dead_code.allow entries that are not a test-only src/ function"
if [[ "${status}" == 0 ]]; then
  echo "    nothing unreached; $(wc -l <"${work}/allowed") allowlisted" \
    "test-only functions"
fi
exit "${status}"
