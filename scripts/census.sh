#!/usr/bin/env bash
# Reach census (ROADMAP item 6c): what reaches each public item of the
# workspace's non-test code. rustc's `dead_code` lint is silent on a `pub`
# item nothing calls, so a second implementation, a wrapper or a dial kept
# alive only by its own unit test goes unnoticed; this script notices it.
#
# Items: every `pub fn` (`const`, `async`, `unsafe` included), every `pub`
# field of a `pub struct` and every variant of a `pub enum` in non-test
# `crates/*/src` code. Test code is a `#[cfg(test)]` item (a module, a fn,
# a statement) and every file a `#[cfg(test)] mod x;` pulls in.
#
# Reach is resolved by the compiler, not by name, so an item that shares
# its name (`new`, `len`, `stats`) with a live one is judged on its own:
# the script copies the tree to target/census/tree, marks every item
# `#[deprecated(note = "census:ID")]` there (on the item's own line, so
# line numbers stay), runs `cargo check --all-targets` on the workspace
# and on the repo benchmark, and counts each "use of deprecated" warning
# against its item, by the class of the line that uses it:
#   self    non-test code of the item's own crate
#   prod    non-test code in other crates' src (crates/bench aside) and src/
#   own     unit tests of the item's own crate
#   other   unit tests of other crates
#   integ   integration tests (tests/, crates/*/tests/)
#   figs    figures (crates/bench: benches and their support library)
#   ex      examples (examples/, crates/*/examples/)
#   bench   the repo benchmark (benchmark/src, benchmark/tests)
# A `use` statement, on all its lines, is not a reach: a re-export is not a
# caller. rustc also
# warns inside a deprecated item (each item's attribute is an origin of
# its own), so one pass sees a use from one marked item to another. Were
# it ever silent there, the gate would fail a reached item, never pass an
# unreached one. Only files whose marked copy changed are rewritten, so a
# re-run rechecks only what changed (about 20 s cold, 2–5 s warm, on a
# 2-vCPU guest).
#
# An `is_empty` beside a public `len` of the same type passes: clippy's
# `len_without_is_empty` asks for it.
#
# Usage:
#   scripts/census.sh           gate: fail on any item reached by nothing
#                               or only by its own crate's unit tests, and
#                               on a fn reached only from its own crate
#                               (`pub(crate)` says that),
#                               unless scripts/census.allow names it and
#                               the DESIGN.md section or ROADMAP.md item
#                               the entry cites names it too; also fail
#                               on an entry that no longer names such an
#                               item
#   scripts/census.sh --table   print every item with its reach counts
set -euo pipefail
cd "$(dirname "$0")/.."

mode=gate
case "${1:-}" in
    '') ;;
    --table) mode=table ;;
    *) echo "usage: $0 [--table]" >&2; exit 2 ;;
esac

allow=scripts/census.allow
[ -f "$allow" ] || { echo "missing $allow" >&2; exit 2; }
work=target/census
mkdir -p "$work/tree"

srcs=$(find crates/*/src -name '*.rs' | sort)
# Files that are test code whole: the targets of `#[cfg(test)] mod x;`.
testfiles=$(awk '
    FNR == 1 { pend = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { pend = 1 }
    pend && match($0, /mod[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*;/) {
        name = substr($0, RSTART + 3, RLENGTH - 4)
        gsub(/[[:space:]]/, "", name)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        base = FILENAME; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
        if (base != "lib" && base != "main" && base != "mod") dir = dir "/" base
        print dir "/" name ".rs"; print dir "/" name "/mod.rs"
    }
    pend && !/^[[:space:]]*(#|\/\/|$)/ && !/cfg\(test\)/ { pend = 0 }
' $srcs | while read -r f; do [ -f "$f" ] && echo "$f"; done || true)

# One scanner, two phases. `items` lists every item (id, kind, owner::name,
# crate, file:line) and writes each source file, its items marked, to the
# stage; `reach` classes every warned line and judges each item.
scan='
function sanitize(l) {
    # The rest of a string literal opened on an earlier line.
    if (instr) {
        if (match(l, /^([^"\\]|\\.)*"/)) { l = substr(l, RLENGTH + 1); instr = 0 }
        else return ""
    }
    gsub(/r#"([^"]|"[^#])*"#/, " ", l)
    gsub(charre, " ", l)
    gsub(/"([^"\\]|\\.)*"/, " ", l)
    sub(/\/\/.*/, "", l)
    # A string literal left open runs on to the next line.
    if (index(l, "\"")) { l = substr(l, 1, index(l, "\"") - 1); instr = 1 }
    return l
}
function class(f) {
    if (f ~ /^crates\/bench\//) return "figs"
    if (f ~ /^crates\/[^\/]+\/src\//) return "unit"
    if (f ~ /^src\//) return "prod:"
    if (f ~ /^(tests|crates\/[^\/]+\/tests)\//) return "integ"
    if (f ~ /^(examples|crates\/[^\/]+\/examples)\//) return "ex"
    return "bench"
}
function additem(kind, owner, name) {
    n++
    print n, kind, (owner == "" ? name : owner "::" name), crate, FILENAME ":" FNR > itemsfile
    mark = "#[deprecated(note = \"census:" n "\")] "
}
BEGIN {
    charre = q "(\\\\.|[^\\\\" q "])" q
    ntf = split(testfiles, tf, " ")
    for (i = 1; i <= ntf; i++) testfile[tf[i]] = 1
    if (phase == "reach") while ((getline line < usesfile) > 0) {
        split(line, w, " "); used[w[2]] = used[w[2]] " " w[1]
    }
}
FNR == 1 {
    depth = 0; instr = 0; inuse = 0; pend = 0; intest = 0; sdecl = 0; edecl = 0; sopen = 0; eopen = 0; iopen = 0
    insrc = FILENAME ~ /^crates\/[^\/]+\/src\//
    crate = ""
    if (FILENAME ~ /^crates\//) { crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate) }
    tfile = (FILENAME in testfile)
}
{
    l = sanitize($0)
    if (insrc && !tfile && !intest && !pend && l ~ /^[[:space:]]*#\[cfg\(test\)\]/) {
        pend = 1; pdepth = depth
    }
    t = tfile || intest || pend
    o = gsub(/\{/, "{", l); c = gsub(/\}/, "}", l)
    mark = ""
    if (phase == "items" && insrc && !t) {
        if (match(l, /^[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
            s = substr(l, RSTART, RLENGTH); sub(/^.*fn[[:space:]]+/, "", s)
            additem("fn", iopen && depth == idepth + 1 ? iname : "", s)
        } else if (sopen && depth == sdepth + 1 && match(l, /^[[:space:]]*pub[[:space:]]+[a-z_][A-Za-z0-9_]*[[:space:]]*:/)) {
            s = substr(l, RSTART, RLENGTH); sub(/^[[:space:]]*pub[[:space:]]+/, "", s); sub(/[[:space:]]*:$/, "", s)
            additem("field", sname, s)
        } else if (eopen && depth == edepth + 1 && match(l, /^[[:space:]]*[A-Z][A-Za-z0-9_]*[[:space:]]*([,({=]|$)/)) {
            s = substr(l, RSTART, RLENGTH); sub(/^[[:space:]]*/, "", s); sub(/[[:space:]]*[,({=]?$/, "", s)
            additem("variant", ename, s)
        }
        if (match(l, /^[[:space:]]*pub[[:space:]]+struct[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
            sdecl = 1; sdepth = depth; sname = substr(l, RSTART, RLENGTH); sub(/^.*struct[[:space:]]+/, "", sname)
        }
        if (match(l, /^[[:space:]]*pub[[:space:]]+enum[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
            edecl = 1; edepth = depth; ename = substr(l, RSTART, RLENGTH); sub(/^.*enum[[:space:]]+/, "", ename)
        }
        # An inherent or trait impl names the owner of the fns in it.
        if (!iopen && l ~ /^[[:space:]]*impl[[:space:]<]/) {
            s = l; sub(/[[:space:]]*(where|\{).*$/, "", s); sub(/^.*[[:space:]]for[[:space:]]+/, "", s)
            sub(/^[[:space:]]*impl(<[^>]*>)?[[:space:]]*/, "", s); sub(/<.*$/, "", s); sub(/^.*::/, "", s)
            iname = s; idecl = 1; idepth = depth
        }
    }
    if (phase == "items" && insrc) print mark $0 > (stage "/" FILENAME)
    # A declaration opens at its first brace; a `;` first (a tuple or
    # unit struct) ends it.
    if (sdecl && o > 0) { sdecl = 0; sopen = 1 } else if (sdecl && l ~ /;/) sdecl = 0
    if (edecl && o > 0) { edecl = 0; eopen = 1 }
    if (idecl && o > 0) { idecl = 0; iopen = 1 }
    if (pend) {
        if (o > 0) { pend = 0; intest = 1; tstart = pdepth }
        else if (l ~ /;/) pend = 0
    }
    depth += o - c
    if (intest && depth <= tstart) intest = 0
    if (sopen && depth <= sdepth) sopen = 0
    if (eopen && depth <= edepth) eopen = 0
    if (iopen && depth <= idepth) iopen = 0

    # A `use` may span lines; none of them is a reach.
    if (l ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?use[[:space:]]/) inuse = 1
    if (phase == "reach" && ((FILENAME ":" FNR) in used) && !inuse) {
        # Unit-test code in crates/bench is figure code like the rest of it.
        key = class(FILENAME)
        if (key == "unit") key = (t ? "unit:" : "prod:") crate
        m = split(used[FILENAME ":" FNR], ids, " ")
        for (i = 1; i <= m; i++) {
            cnt[ids[i] SUBSEP key]++
            if (key ~ /^unit:/) unit[ids[i]]++
            if (key ~ /^prod:/) prod[ids[i]]++
        }
    }
    if (inuse && l ~ /;/) inuse = 0
}
'

# Phase 1: the items, and the tree with every item marked.
rm -rf "$work/stage"; mkdir -p "$work/stage"
for f in $srcs; do mkdir -p "$work/stage/$(dirname "$f")"; done
awk -v phase=items -v testfiles="$(echo $testfiles)" -v q="'" \
    -v itemsfile="$work/items" -v stage="$work/stage" "$scan" $srcs
find Cargo.toml Cargo.lock BENCHMARK.json src tests examples crates benchmark -type f \
    -not -path '*/target/*' -not -path 'benchmark/out/*' | grep -vE '^crates/[^/]+/src/' \
    | while read -r f; do mkdir -p "$work/stage/$(dirname "$f")"; cp "$f" "$work/stage/$f"; done
# Rewrite only what changed, so cargo rechecks only that.
(cd "$work/stage" && find . -type f) | while read -r f; do
    cmp -s "$work/stage/$f" "$work/tree/$f" || { mkdir -p "$work/tree/$(dirname "$f")"; cp "$work/stage/$f" "$work/tree/$f"; }
done
(cd "$work/tree" && find . -type f) | while read -r f; do
    [ -f "$work/stage/$f" ] || rm "$work/tree/$f"
done

# Phase 2: every use the compiler attributes, as `id file:line`.
uses() {
    awk -v prefix="$1" '
        /: census:[0-9]+$/ { id = $0; sub(/^.*census:/, "", id); want = 1; next }
        want && match($0, /^ *--> [^:]+:[0-9]+/) {
            s = substr($0, RSTART, RLENGTH); sub(/^ *--> /, "", s)
            # The benchmark sees the workspace crates as `../crates/...`.
            print id, (sub(/^\.\.\//, "", s) ? "" : prefix) s; want = 0
        }' "$2"
}
export CARGO_TARGET_DIR="$PWD/$work/build" RUSTFLAGS="--cap-lints=warn"
(cd "$work/tree" && cargo check -q --workspace --all-targets --offline --locked) 2> "$work/check.log" \
    && (cd "$work/tree/benchmark" && cargo check -q --all-targets --offline --locked) 2> "$work/check-bench.log" \
    || { cat "$work/check.log" "$work/check-bench.log" 2>/dev/null | grep -A5 '^error' >&2; exit 2; }
{ uses "" "$work/check.log"; uses benchmark/ "$work/check-bench.log"; } | sort -u > "$work/uses"
grep -q . "$work/uses" || { echo "census: the compiler reported no use of any item" >&2; exit 2; }

others=$(find src tests crates/*/tests crates/bench/benches examples crates/*/examples \
    benchmark/src benchmark/tests -name '*.rs' 2>/dev/null | sort)
awk -v phase=reach -v testfiles="$(echo $testfiles)" -v q="'" -v usesfile="$work/uses" \
    -v itemsfile="$work/items" -v mode="$mode" -v allowfile="$allow" "$scan"'
# A section of a document: DESIGN.md §N (its `## N.` heading) or ROADMAP.md
# item N (its `N. **` open item), up to the next of its kind.
function section(doc, sec,   text, line, on, re) {
    re = doc == "ROADMAP.md" ? "^" sec "\\. \\*\\*" : "^## " sec "\\. "
    while ((getline line < doc) > 0) {
        if (on && (doc == "ROADMAP.md" ? line ~ /^([0-9]+\. \*\*|## )/ : line ~ /^## /)) on = 0
        if (line ~ re) on = 1
        if (on) text = text " " line
    }
    close(doc)
    return text
}
END {
    while ((getline line < allowfile) > 0) {
        if (line ~ /^[[:space:]]*(#|$)/) continue
        split(line, w, /[[:space:]]+/)
        reason = line; sub(/^[[:space:]]*[^[:space:]]+[[:space:]]+[^[:space:]]+[[:space:]]*/, "", reason)
        if (w[2] !~ /^(DESIGN|ROADMAP)\.md:[0-9]+$/ || reason == "") {
            print allowfile ": `" w[1] "` needs a DESIGN.md:N or ROADMAP.md:N citation and a reason"; bad = 1
        } else {
            split(w[2], cite, ":"); bare = w[1]; sub(/^.*::/, "", bare)
            text = section(cite[1], cite[2])
            if (!index(text, "`" w[1] "`") && !index(text, "`" bare "`")) {
                print allowfile ": " w[2] " does not name `" w[1] "`"; bad = 1
            }
        }
        allowed[w[1]] = 1; nallow++; allowname[nallow] = w[1]
    }
    while ((getline line < itemsfile) > 0) {
        n++; split(line, w, " "); iid[n] = w[1]; ikind[n] = w[2]; names[n] = w[3]; icrate[n] = w[4]; iwhere[n] = w[5]
        isfn[w[3]] = w[2] == "fn"
    }
    if (mode == "table")
        printf "%-18s %-40s %-8s %5s %6s %5s %5s %5s %5s %5s %5s\n", "crate", "item", "kind",
            "self", "prod", "own", "other", "integ", "figs", "ex", "bench"
    for (i = 1; i <= n; i++) {
        id = iid[i]; m = names[i]
        own = cnt[id SUBSEP "unit:" icrate[i]] + 0
        other = unit[id] - own
        sp = cnt[id SUBSEP "prod:" icrate[i]] + 0
        p = prod[id] - sp; ig = cnt[id SUBSEP "integ"] + 0
        fg = cnt[id SUBSEP "figs"] + 0; ex = cnt[id SUBSEP "ex"] + 0; bn = cnt[id SUBSEP "bench"] + 0
        beyond = p + other + ig + fg + ex + bn
        # clippy (`len_without_is_empty`) asks for an `is_empty` beside
        # every public `len` method.
        paired = m ~ /::is_empty$/ && isfn[substr(m, 1, length(m) - 8) "len"]
        if (mode == "table")
            printf "%-18s %-40s %-8s %5d %6d %5d %5d %5d %5d %5d %5d%s\n", icrate[i], m, ikind[i],
                sp, p, own, other, ig, fg, ex, bn,
                beyond || (sp && ikind[i] != "fn") ? "" : (m in allowed) ? "  (allowed)" \
                : paired ? "  (beside len)" : "  <- fails the gate"
        # Only a fn can be narrowed on its own: a variant is as visible as
        # its enum, and a struct another crate builds with `..Default`
        # needs every field public. Fields and variants reached only from
        # their own crate show in the `self` column of the table.
        if (beyond == 0 && (sp == 0 || ikind[i] == "fn")) {
            flagged[m] = 1
            if (mode == "gate" && !(m in allowed) && !paired) {
                printf "%s: %s `%s` is reached %s\n", iwhere[i], ikind[i], m,
                    sp ? "only from its own crate (" sp " production uses): make it pub(crate)" \
                    : own ? "only by its own crate'"'"'s unit tests (" own ")" : "by nothing"
                bad = 1
            }
        }
    }
    if (mode == "gate") for (i = 1; i <= nallow; i++) if (!(allowname[i] in flagged)) {
        printf "%s: `%s` is reached from another crate now; drop it\n", allowfile, allowname[i]
        bad = 1
    }
    if (mode == "gate" && bad) exit 1
}
' $srcs $others
