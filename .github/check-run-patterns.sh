#!/usr/bin/env bash
# Fails when a -run alternative of a `go test` line in the workflow matches
# no test, example or fuzz target in that line's packages, so renaming a
# test cannot silently empty a step that pins it by name.
#
# Usage: .github/check-run-patterns.sh [workflow file]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
status=0
checked=0
while IFS= read -r line; do
	[[ $line == *"go test "* && $line == *"-run '"* ]] || continue
	re=${line#*-run \'}
	re=${re%%\'*}
	[[ $re == '^$' ]] && continue
	# The line's packages and the flags that change what is compiled.
	read -ra toks <<<"${line#*go test }"
	pkgs=()
	flags=()
	for ((i = 0; i < ${#toks[@]}; i++)); do
		case ${toks[i]} in
		. | ./*) pkgs+=("${toks[i]}") ;;
		-race) flags+=(-race) ;;
		-tags) flags+=(-tags "${toks[i + 1]}") ;;
		'|') break ;;
		esac
	done
	names=$(go test "${flags[@]}" -list '.*' "${pkgs[@]}" | grep -E '^(Test|Example|Fuzz)' || true)
	IFS='|' read -ra alts <<<"$re"
	for a in "${alts[@]}"; do
		checked=$((checked + 1))
		# -run matches unanchored, one level per slash-separated element.
		if ! grep -qE -- "${a%%/*}" <<<"$names"; then
			echo "$wf: -run alternative '$a' matches no test in ${pkgs[*]}"
			status=1
		fi
	done
done <"$wf"
echo "$checked -run alternatives checked"
exit $status
