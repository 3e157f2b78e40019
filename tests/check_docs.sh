#!/usr/bin/env bash
# Documentation drift gate (wired in as the `docs` CTest label and run
# by the CI workflow):
#  1. every src/<module>/ directory must appear in README.md's module map
#     and in docs/ARCHITECTURE.md;
#  2. every serving-layer header (src/service/*.hpp) must be documented
#     in docs/ARCHITECTURE.md or docs/SERVICE.md — a new service module
#     (e.g. the artifact store) fails the gate until the docs cover it;
#  3. every public message/class name in the distribution protocol
#     header (src/service/distribution.hpp) must appear in
#     docs/DISTRIBUTION.md, which README.md must link — the wire
#     protocol doc may not silently drift from the header;
#  4. README.md's tier-1 quickstart command must match the "Tier-1
#     verify:" line in ROADMAP.md verbatim.
# Runnable from any CWD and via symlink: the repo root is resolved from
# this script's own location, never from $PWD.
set -euo pipefail

SELF="${BASH_SOURCE[0]}"
while [[ -L "$SELF" ]]; do
  target="$(readlink "$SELF")"
  case "$target" in
    /*) SELF="$target" ;;
    # A relative link target resolves against the symlink's directory,
    # not the caller's CWD.
    *) SELF="$(dirname "$SELF")/$target" ;;
  esac
done
ROOT="$(cd "$(dirname "$SELF")/.." && pwd)"
fail=0

for doc in README.md docs/ARCHITECTURE.md; do
  if [[ ! -f "$ROOT/$doc" ]]; then
    echo "missing $doc" >&2
    fail=1
  fi
done
[[ $fail -ne 0 ]] && exit 1

for dir in "$ROOT"/src/*/; do
  module="$(basename "$dir")"
  for doc in README.md docs/ARCHITECTURE.md; do
    if ! grep -q "src/$module/" "$ROOT/$doc"; then
      echo "$doc: module src/$module/ is not documented" >&2
      fail=1
    fi
  done
done

# Serving-layer modules are documented individually: each header's stem
# (artifact_store, spec_cache, ...) must appear in the architecture map
# or the service internals doc. Shared concurrency primitives
# (src/common/*.hpp: rcu, single_flight, ...) and the VM's execution tiers
# (src/vm/*.hpp: executor, decoded, ...) are held to the same
# rule — a new header fails the gate until the docs cover it.
for header in "$ROOT"/src/service/*.hpp "$ROOT"/src/common/*.hpp \
              "$ROOT"/src/vm/*.hpp; do
  stem="$(basename "$header" .hpp)"
  if ! grep -q "$stem" "$ROOT/docs/ARCHITECTURE.md" \
     && ! grep -q "$stem" "$ROOT/docs/SERVICE.md"; then
    echo "docs: module $header is documented in" \
         "neither docs/ARCHITECTURE.md nor docs/SERVICE.md" >&2
    fail=1
  fi
done

# The distribution wire-protocol doc must name every public struct,
# class, and enum the header declares at namespace scope. Offending
# names are listed one per line so the failure says exactly what to
# document.
DIST_HEADER="$ROOT/src/service/distribution.hpp"
DIST_DOC="$ROOT/docs/DISTRIBUTION.md"
if [[ ! -f "$DIST_DOC" ]]; then
  echo "missing docs/DISTRIBUTION.md (required by src/service/distribution.hpp)" >&2
  fail=1
else
  missing=()
  while read -r name; do
    [[ -z "$name" ]] && continue
    if ! grep -q "\b$name\b" "$DIST_DOC"; then
      missing+=("$name")
    fi
  done < <(sed -n -E \
      's/^(struct|class|enum class) ([A-Za-z_][A-Za-z0-9_]*).*/\2/p' \
      "$DIST_HEADER" | sort -u)
  if (( ${#missing[@]} > 0 )); then
    echo "docs/DISTRIBUTION.md: public names from" \
         "src/service/distribution.hpp are undocumented:" >&2
    printf '  %s\n' "${missing[@]}" >&2
    fail=1
  fi
  if ! grep -q "docs/DISTRIBUTION.md" "$ROOT/README.md"; then
    echo "README.md: does not link docs/DISTRIBUTION.md" >&2
    fail=1
  fi
fi

tier1="$(sed -n 's/.*Tier-1 verify:\*\* `\(.*\)`.*/\1/p' "$ROOT/ROADMAP.md")"
if [[ -z "$tier1" ]]; then
  echo "ROADMAP.md: no '**Tier-1 verify:** \`...\`' line found" >&2
  fail=1
elif ! grep -qF "$tier1" "$ROOT/README.md"; then
  echo "README.md: tier-1 command drifted from ROADMAP.md." >&2
  echo "  expected to find: $tier1" >&2
  fail=1
fi

if [[ $fail -eq 0 ]]; then
  echo "docs check passed"
fi
exit $fail
