#!/usr/bin/env bash
# qpe_served must refuse a queue bound it cannot honour: --default-queue
# and the QUEUE field of --tenant take a whole integer in 1..INT_MAX. A
# bound of 0, a negative one or a non-number would otherwise shed every
# request of the tenant while the daemon looks healthy. Each bad flag must
# exit 2 before the daemon creates its socket.
#
# Usage: scripts/check_served_flags.sh PATH/TO/qpe_served
set -euo pipefail

served="$1"
dir="$(mktemp -d)"
trap 'rm -rf "${dir}"' EXIT
sock="${dir}/qpe.sock"

status=0
for flag in --default-queue=0 --default-queue=x --default-queue= \
            --default-queue=-3 --default-queue=4x \
            --default-queue=2147483648 --tenant=a:1:1:1:0 \
            --tenant=a:1:1:1:x; do
  rc=0
  timeout 10 "${served}" --small --socket="${sock}" "${flag}" \
    >/dev/null 2>"${dir}/err" || rc=$?
  if [[ ${rc} -ne 2 ]]; then
    echo "check_served_flags: ${flag} exited ${rc}, want 2" >&2
    status=1
  elif [[ -e "${sock}" ]]; then
    echo "check_served_flags: ${flag} created ${sock} before exiting" >&2
    status=1
  elif ! grep -q -- "${flag%%=*}" "${dir}/err"; then
    echo "check_served_flags: ${flag}: message does not name the flag:" >&2
    cat "${dir}/err" >&2
    status=1
  fi
  rm -f "${sock}"
done
if [[ ${status} -eq 0 ]]; then
  echo "check_served_flags: OK (bad queue bounds exit 2, no socket)"
fi
exit "${status}"
