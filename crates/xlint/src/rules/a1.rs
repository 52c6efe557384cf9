//! Rules A1/A2 — atomic memory-ordering discipline.
//!
//! **A1**: a `Relaxed` *store-side* operation (`store`, `swap`, the
//! success ordering of `compare_exchange[_weak]` / `fetch_update`) on an
//! atomic field that more than one function touches is a publish with no
//! release fence — readers in another thread may observe the value
//! without the writes that preceded it. Fields only ever touched from
//! one function (true thread-private scratch) are exempt; the failure
//! ordering of a compare-exchange is a load and is exempt by
//! construction. Arithmetic RMWs (`fetch_add`, `fetch_max`, …) are
//! exempt *unless* some other site on the same field uses a
//! synchronizing ordering: RMWs on one atomic always read the latest
//! value in the field's single modification order, so `Relaxed` is
//! correct for pure statistics counters — but a field somebody
//! `Acquire`s is a synchronization point, and then every write side
//! must pair up.
//!
//! **A2**: a `store`/`load` pair on the same atomic field with
//! *asymmetric* orderings — `Release`/`SeqCst` stores read by `Relaxed`
//! loads (the acquire half is missing), or `Acquire`/`SeqCst` loads of a
//! field only ever stored `Relaxed` (the release half is missing).
//! Either way one side paid for synchronization the other side throws
//! away.
//!
//! Approximation direction: sites are the parser's atomic operations —
//! inside `fn` bodies, with an explicit `Ordering::X` literal in the
//! argument list — and field
//! identity is per-file (`self.field` receivers collapse by final field
//! name, mirroring the lock-identity rule). Orderings passed through
//! variables and cross-file access patterns are missed —
//! under-approximate, so every finding is real enough to review; the
//! sanitizer CI matrix (Miri/TSan) covers the dynamic remainder.

use super::Violation;
use crate::parser::AtomicOp;
use crate::source::SourceFile;

/// One atomic operation from the file's parse, with its enclosing fn.
struct AtomicSite<'a> {
    op: &'a AtomicOp,
    /// A1's "how many fns touch this field" count.
    fn_name: &'a str,
}

impl AtomicSite<'_> {
    fn is_load(&self) -> bool {
        self.op.method == "load"
    }

    /// The ordering governing the write, for store-side ops (only the
    /// *first* ordering of a compare-exchange governs the write).
    fn store_ordering(&self) -> Option<&str> {
        if self.is_load() {
            return None;
        }
        self.op.orderings.first().map(String::as_str)
    }

    fn load_ordering(&self) -> Option<&str> {
        if !self.is_load() {
            return None;
        }
        self.op.orderings.first().map(String::as_str)
    }
}

fn is_sync(ordering: &str) -> bool {
    matches!(ordering, "Acquire" | "Release" | "AcqRel" | "SeqCst")
}

/// The file's atomic operations in source order, read off its one parse.
fn sites(sf: &SourceFile) -> Vec<AtomicSite<'_>> {
    sf.parsed
        .fns
        .iter()
        .flat_map(|f| {
            f.atomics.iter().map(|op| AtomicSite {
                op,
                fn_name: &f.name,
            })
        })
        .collect()
}

pub fn check_a1(sf: &SourceFile) -> Vec<Violation> {
    let sites = sites(sf);
    let mut out = Vec::new();
    for s in &sites {
        if s.store_ordering() != Some("Relaxed") {
            continue;
        }
        let peers: Vec<&AtomicSite> = sites.iter().filter(|o| o.op.field == s.op.field).collect();
        let mut fns: Vec<&str> = peers.iter().map(|o| o.fn_name).collect();
        fns.sort_unstable();
        fns.dedup();
        if fns.len() < 2 {
            continue; // single-fn scratch — not a cross-thread publish
        }
        // Counter-shaped RMWs stay Relaxed unless the field is a
        // synchronization point (some site acquires/releases on it).
        let counter_shaped = s.op.method.starts_with("fetch_") && s.op.method != "fetch_update";
        let field_synchronizes = peers
            .iter()
            .any(|o| o.op.orderings.iter().any(|ord| is_sync(ord)));
        if counter_shaped && !field_synchronizes {
            continue;
        }
        out.push(Violation::new(
            "A1",
            sf,
            s.op.line,
            format!(
                "Relaxed `{}` on atomic `{}` (touched by {}) publishes with no release fence — \
                 use Release/AcqRel, or add an audited allow for a pure statistics counter",
                s.op.method,
                s.op.field,
                fns.join(", "),
            ),
        ));
    }
    out
}

pub fn check_a2(sf: &SourceFile) -> Vec<Violation> {
    let sites = sites(sf);
    let mut fields: Vec<&str> = sites.iter().map(|s| s.op.field.as_str()).collect();
    fields.sort_unstable();
    fields.dedup();
    let mut out = Vec::new();
    for field in fields {
        let stores: Vec<&AtomicSite> = sites
            .iter()
            .filter(|s| s.op.field == field && s.op.method == "store")
            .collect();
        let loads: Vec<&AtomicSite> = sites
            .iter()
            .filter(|s| s.op.field == field && s.is_load())
            .collect();
        let any_sync_store = stores
            .iter()
            .any(|s| s.store_ordering().is_some_and(is_sync));
        let any_sync_load = loads.iter().any(|s| s.load_ordering().is_some_and(is_sync));
        if any_sync_store {
            for l in loads
                .iter()
                .filter(|l| l.load_ordering() == Some("Relaxed"))
            {
                out.push(Violation::new(
                    "A2",
                    sf,
                    l.op.line,
                    format!(
                        "Relaxed load of atomic `{field}` that is stored with a release ordering \
                         elsewhere in this file — the acquire half of the pairing is missing"
                    ),
                ));
            }
        } else if any_sync_load && !stores.is_empty() {
            for s in stores
                .iter()
                .filter(|s| s.store_ordering() == Some("Relaxed"))
            {
                out.push(Violation::new(
                    "A2",
                    sf,
                    s.op.line,
                    format!(
                        "Relaxed store to atomic `{field}` that is loaded with an acquire ordering \
                         elsewhere in this file — the release half of the pairing is missing"
                    ),
                ));
            }
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_source(Path::new("crates/d/src/lib.rs"), src)
    }

    #[test]
    fn relaxed_publish_across_fns_is_flagged() {
        let v = check_a1(&file(
            "impl C {\n\
             fn bump(&self) { self.epoch.store(1, Ordering::Relaxed); }\n\
             fn read(&self) -> u64 { self.epoch.load(Ordering::Acquire) }\n\
             }\n",
        ));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("self.epoch"), "{}", v[0].message);
    }

    #[test]
    fn single_fn_counter_and_release_store_pass() {
        let v = check_a1(&file(
            "impl C {\n\
             fn only(&self) { self.n.fetch_add(1, Ordering::Relaxed); let _x = self.n.load(Ordering::Relaxed); }\n\
             fn pubd(&self) { self.e.store(1, Ordering::Release); }\n\
             fn rd(&self) -> u64 { self.e.load(Ordering::Acquire) }\n\
             }\n",
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn all_relaxed_counters_are_exempt_until_somebody_synchronizes() {
        // fetch_add + Relaxed load across fns: a pure statistics counter.
        let v = check_a1(&file(
            "impl C {\n\
             fn hit(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
             fn snapshot(&self) -> u64 { self.hits.load(Ordering::Relaxed) }\n\
             }\n",
        ));
        assert!(v.is_empty(), "{v:?}");
        // The same counter read with Acquire is a synchronization point —
        // now the Relaxed bump is the missing release half.
        let v = check_a1(&file(
            "impl C {\n\
             fn bump(&self) { self.seq.fetch_add(1, Ordering::Relaxed); }\n\
             fn wait(&self) -> u64 { self.seq.load(Ordering::Acquire) }\n\
             }\n",
        ));
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn cmpxchg_failure_ordering_is_exempt() {
        let v = check_a1(&file(
            "impl C {\n\
             fn cas(&self) { self.s.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed); }\n\
             fn rd(&self) -> u64 { self.s.load(Ordering::Acquire) }\n\
             }\n",
        ));
        assert!(v.is_empty(), "failure ordering is a load: {v:?}");
    }

    #[test]
    fn asymmetric_store_load_pair_is_flagged() {
        let v = check_a2(&file(
            "impl C {\n\
             fn w(&self) { self.seq.store(1, Ordering::Release); }\n\
             fn r(&self) -> u64 { self.seq.load(Ordering::Relaxed) }\n\
             }\n",
        ));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("acquire half"), "{}", v[0].message);
        let v = check_a2(&file(
            "impl C {\n\
             fn w(&self) { self.seq.store(1, Ordering::Relaxed); }\n\
             fn r(&self) -> u64 { self.seq.load(Ordering::Acquire) }\n\
             }\n",
        ));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("release half"), "{}", v[0].message);
    }

    #[test]
    fn symmetric_pairs_and_non_atomics_pass() {
        let v = check_a2(&file(
            "impl C {\n\
             fn w(&self, m: &Map) { self.seq.store(1, Ordering::Release); m.store(k, v); }\n\
             fn r(&self) -> u64 { self.seq.load(Ordering::Acquire) }\n\
             }\n",
        ));
        assert!(v.is_empty(), "{v:?}");
    }
}
