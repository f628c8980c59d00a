#!/usr/bin/env bash
# Fails when a .go or .md file tracked by git cites a ROADMAP item that
# is neither open nor retired.
#
#   scripts/roadmapcites.sh
#
# A citation is "ROADMAP N", "ROADMAP item N" or "ROADMAP items N", N an
# item number, maybe followed by a step ("3(l)", "5b"). The open items
# are ROADMAP.md's numbered items ("N. **") under "## Open items"; the
# retired ones are those its sentence "Items ... are retired." lists.
# ROADMAP.md and CHANGES.md are not checked: they cite items by history.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

open=$(awk '/^## /{on = ($0 == "## Open items"); next} on && /^[0-9]+\. \*\*/{sub(/\..*/, ""); print}' ROADMAP.md)
retired=$(tr '\n' ' ' <ROADMAP.md | grep -oE 'Items [0-9, and]+ are +retired' | grep -oE '[0-9]+' || true)
if [ -z "$open" ]; then
	echo "roadmapcites: found no open item in ROADMAP.md" >&2
	exit 1
fi
known=" $(echo $open $retired) "

bad=0
while IFS=: read -r file line cite; do
	n=$(grep -oE '[0-9]+' <<<"$cite")
	if [[ "$known" != *" $n "* ]]; then
		echo "$file:$line: \"$cite\" names no open or retired ROADMAP item" >&2
		bad=1
	fi
done < <(git ls-files -z -- '*.go' '*.md' ':!ROADMAP.md' ':!CHANGES.md' |
	xargs -0 -r grep -HnoE 'ROADMAP( items?)? [0-9]+' || true)
if [ "$bad" = 0 ]; then
	echo "roadmapcites: every ROADMAP citation names an open or retired item ($(echo $open | wc -w) open, $(echo $retired | wc -w) retired)"
fi
exit $bad
