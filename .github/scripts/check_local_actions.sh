#!/usr/bin/env bash
# Fails when a workflow or composite action refers to a local action
# (`uses: ./path`) whose action.yml/action.yaml is not tracked by git — a
# job using it could never start. Run from the repository root.
set -euo pipefail

status=0
files=$(git ls-files '.github/workflows/*.yml' '.github/workflows/*.yaml' \
                     '.github/actions/*/action.yml' '.github/actions/*/action.yaml')
for f in $files; do
  while IFS= read -r path; do
    path=${path%/}
    if git ls-files --error-unmatch "$path/action.yml" >/dev/null 2>&1 ||
       git ls-files --error-unmatch "$path/action.yaml" >/dev/null 2>&1; then
      continue
    fi
    echo "::error file=$f::local action '$path' is not tracked by git"
    status=1
  done < <(sed -n 's/^[[:space:]-]*uses:[[:space:]]*\(\.\/[^[:space:]@]*\).*/\1/p' "$f" | sort -u)
done
exit $status
