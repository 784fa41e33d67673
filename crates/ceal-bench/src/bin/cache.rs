//! `cache` — inspect and move autotune caches between deployments.
//!
//! ```text
//! cache export CACHE_DIR BUNDLE.json   # whole cache -> one portable file
//! cache import CACHE_DIR BUNDLE.json   # merge a bundle into a cache
//! cache stats  CACHE_DIR               # entries / shards / workflows
//! ```
//!
//! The bundle is a single checksummed JSON file, so a tuning deployment
//! can ship its completed campaigns with the program (the "ship the
//! cache" pattern) and a fresh install can cold-start warm: exact matches
//! serve with zero oracle spend, and near-miss platforms seed from the
//! closest shipped sibling. `import` never overwrites — campaigns already
//! cached locally win over imported ones. A cache of an older layout — one
//! `shard-*.json` file per workflow, or a single-file cache — is not read
//! in place; each of its files is a bundle, so `import` converts it.

use ceal_serve::AutotuneCache;

fn usage() -> ! {
    eprintln!(
        "usage: cache export CACHE_DIR BUNDLE.json\n       \
         cache import CACHE_DIR BUNDLE.json\n       \
         cache stats  CACHE_DIR"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["export", dir, bundle] => {
            let cache = AutotuneCache::at_path(dir);
            let text = cache.export_bundle().unwrap_or_else(|e| fail(e));
            std::fs::write(bundle, &text).unwrap_or_else(|e| fail(e));
            println!(
                "exported {} campaigns ({} bytes) to {bundle}",
                cache.len(),
                text.len()
            );
        }
        ["import", dir, bundle] => {
            let text = std::fs::read_to_string(bundle).unwrap_or_else(|e| fail(e));
            let cache = AutotuneCache::at_path(dir);
            let (imported, skipped) = cache.import_bundle(&text).unwrap_or_else(|e| fail(e));
            println!(
                "imported {imported} campaigns, skipped {skipped} already cached \
                 ({} total in {dir})",
                cache.len()
            );
        }
        ["stats", dir] => {
            let cache = AutotuneCache::at_path(dir);
            let by_workflow = cache.len_by_workflow();
            println!(
                "{} campaigns in {} shards",
                by_workflow.values().sum::<usize>(),
                cache.shard_count()
            );
            for (workflow, n) in by_workflow {
                println!("  {workflow}: {n}");
            }
        }
        _ => usage(),
    }
}
