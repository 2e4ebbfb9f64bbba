#!/usr/bin/env bash
# reach.sh — only what a binary reaches ships.
#
# Builds every main package of the root module and of the bench module
# with the linker's dependency dump, and lists every non-test function
# declared outside bench/ that no binary reaches. Package csrank's
# exported API counts as reached: it is the library surface.
#
# It fails on an unreached function that scripts/reach.allow does not
# cover, and on an allowlist entry that covers no unreached function
# (the function is now reached, or it no longer exists).
#
# Usage, from anywhere inside the repository: scripts/reach.sh
# (exit 1 on a finding).
#
# The allowlist has one entry per line, "pkg.Func  # reason", where pkg
# is the last element of the import path and a method is
# pkg.Type.Method. "*" matches any run of characters.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
allow=scripts/reach.allow

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# 1. Every symbol a binary reaches. Without -l a function inlined at
#    every call site has no edge of its own and would look unreached.
: > "$tmp/reached.raw"
build() { # module dir, import path
	local dir=$1 ip=$2
	if ! go -C "$dir" build -o "$tmp/bin" -gcflags=all=-l -ldflags=-dumpdep "$ip" > "$tmp/dump" 2>&1; then
		grep -v -- ' -> ' "$tmp/dump" >&2
		exit 1
	fi
	grep -- ' -> ' "$tmp/dump" |
		sed -e 's/ <[A-Za-z]*>$//' -e 's/ -> /\n/' |
		sed -E "s#^main\.#$ip.#" >> "$tmp/reached.raw"
}
for ip in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	build . "$ip"
done
for ip in $(go -C bench list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	build bench "$ip"
done

# Normalize to pkg.Func / pkg.Type.Method: drop the linker's per-function
# aux symbols (content-addressed, so they may carry another function's
# name), generic [...] shapes, the (*T) of pointer receivers and their
# wrappers, closures (.funcN, .gowrapN, .deferwrapN) and method values.
grep '^csrank' "$tmp/reached.raw" |
	grep -vE '\.(arginfo[0-9]*|argliveinfo|opendefer|stkobj|wrapinfo|args_stackmap)$' |
	sed -E -e ':b' -e 's/\[[^][]*\]//g' -e 'tb' |
	sed -E -e 's/\(\*([^)]*)\)/\1/g' -e 's/-fm$//' \
		-e ':c' -e 's/\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+)*$//' -e 'tc' \
		-e 's/\.init\.[0-9]+$/.init/' |
	sed -E 's#^csrank/([^.]*/)?([^/.]*)\.#\2.#' |
	sort -u > "$tmp/reached"

# 2. Every non-test func declaration outside bench/: gofmt puts each at
#    column 0 and its closing brace at column 0 too.
git ls-files -co --exclude-standard '*.go' |
	grep -vE '(^bench/|_test\.go$)' |
	while read -r f; do
		d=$(dirname "$f")
		pkg=csrank
		[ "$d" = . ] || pkg=${d##*/}
		awk -v pkg="$pkg" -v file="$f" '
			/^func / {
				s = $0
				sub(/^func /, "", s)
				recv = ""
				if (s ~ /^\(/) {
					recv = s
					sub(/\).*/, "", recv)
					sub(/^\(/, "", recv)
					sub(/^[A-Za-z_0-9]+ /, "", recv)
					sub(/^\*/, "", recv)
					sub(/\[.*/, "", recv)
					sub(/^[^)]*\) */, "", s)
				}
				name = s
				sub(/[^A-Za-z_0-9].*/, "", name)
				if (recv != "") name = recv "." name
				start = NR
				open = ($0 !~ /}$/)
				if (!open) print pkg "." name, file ":" start, 1
			}
			/^}/ && open { print pkg "." name, file ":" start, NR - start + 1; open = 0 }
		' "$f"
	done | sort > "$tmp/declared"

# 3. Unreached = declared, not reached, not csrank's exported API.
awk '
	NR == FNR { reached[$1] = 1; next }
	$1 in reached { next }
	$1 ~ /^csrank\.[A-Z][A-Za-z_0-9]*$/ { next }
	$1 ~ /^csrank\.[A-Z][A-Za-z_0-9]*\.[A-Z]/ { next }
	{ print }
' "$tmp/reached" "$tmp/declared" > "$tmp/unreached"

# 4. Apply the allowlist.
awk -v allowfile="$allow" '
	function globre(g) {
		gsub(/\./, "\\.", g)
		gsub(/\*/, ".*", g)
		return "^" g "$"
	}
	FILENAME == allowfile {
		line = $0
		sub(/[ \t]*#.*/, "", line)
		if (line ~ /^[ \t]*$/) next
		if ($0 !~ /#[ \t]*[^ \t]/) {
			printf "%s:%d: entry %s has no reason\n", allowfile, FNR, line
			bad = 1
		}
		n++
		pat[n] = line
		re[n] = globre(line)
		at[n] = FNR
		next
	}
	{
		hit = 0
		for (i = 1; i <= n; i++) if ($1 ~ re[i]) { used[i]++; hit = 1 }
		if (hit) { allowed++; next }
		printf "unreached %-50s %s (%d lines)\n", $1, $2, $3
		count++
		lines += $3
		bad = 1
	}
	END {
		for (i = 1; i <= n; i++) if (!used[i]) {
			printf "%s:%d: stale entry %s: it covers no unreached function (now reached, or gone)\n", allowfile, at[i], pat[i]
			bad = 1
		}
		printf "reach: %d unreached function(s) (%d lines) outside %s; %d allowlisted\n", count, lines, allowfile, allowed
		exit bad
	}
' "$allow" "$tmp/unreached"
