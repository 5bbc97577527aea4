#!/usr/bin/env bash
# Runs the whole benchmark twice on the same build and fails unless every
# end-to-end metric of every workload agrees within its own bound; prints
# both values and the relative gap per row. Then runs seed 7 once, to show
# the output checks hold on a seed nobody tuned for.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --repeat "$@"
