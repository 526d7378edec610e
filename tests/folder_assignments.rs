//! Folder-tab digest: the benchmark's world (8 topics × 80 pages, 16 users ×
//! 20 sessions, seed 1, bookmarks interleaved with the visits they follow,
//! one demon sweep at the end) — built by the experiments' own
//! `standard_world` — and one committed FNV-1a over every user's folder
//! assignments: page, folder path and whether the user confirmed it or the
//! classification demon guessed it. Whatever the folder spaces keep on the
//! side (the vectors they train on, the classifier), what they file where
//! must not move.
//!
//! The same world pins how often filing its 484 bookmarks retrained a
//! folder classifier from scratch (`demon.folders.rebuilds`): a bookmark
//! into an existing folder re-selects in place, so only a user's new leaf
//! folders, moves and large vocabularies do.
//!
//! (The benchmark also submits the bookmarks left after the last visit; a
//! simulated bookmark carries its visit's time, so there are none.)

use memex::core::memex::Memex;
use memex_bench::worlds::standard_world;

/// Digest of [`assignments_digest`] on `standard_world(false, 1)`. A
/// deliberate change to what the classification demon guesses regenerates
/// it (the failure message prints the new value).
const GOLDEN: u64 = 0x41ac_eb56_c4dd_3713;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Every user's assignments in user order, each user's in page order.
/// Returns the digest and the (confirmed, guessed) counts.
fn assignments_digest(memex: &Memex) -> (u64, usize, usize) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let (mut confirmed, mut guessed) = (0usize, 0usize);
    for user in memex.users() {
        let space = memex.folder_space_ref(user);
        fnv1a(&mut digest, &user.to_le_bytes());
        for (page, a) in space.assignments() {
            let path = space.taxonomy.path(a.folder);
            fnv1a(&mut digest, &page.to_le_bytes());
            fnv1a(&mut digest, &(path.len() as u64).to_le_bytes());
            fnv1a(&mut digest, path.as_bytes());
            fnv1a(&mut digest, &[u8::from(a.confirmed)]);
            if a.confirmed {
                confirmed += 1;
            } else {
                guessed += 1;
            }
        }
    }
    (digest, confirmed, guessed)
}

#[test]
fn every_users_folder_assignments_match_the_committed_digest() {
    let (_, _, memex) = standard_world(false, 1);
    let (digest, confirmed, guessed) = assignments_digest(&memex);
    assert_eq!(memex.users().len(), 16);
    assert_eq!(
        (confirmed, guessed),
        (425, 1_734),
        "confirmed and guessed pages"
    );
    assert_eq!(
        digest, GOLDEN,
        "folder assignments moved: new digest {digest:#018x}"
    );
}

/// `demon.folders.rebuilds` after filing `standard_world(false, 1)`'s 484
/// bookmarks: a user's new leaf folders and moved pages (no space there
/// passes 2 000 terms). Every other bookmark re-selects in place.
const FULL_REBUILDS: u64 = 98;

#[test]
fn filing_the_worlds_bookmarks_retrains_only_on_new_leaves_and_moves() {
    let (_, community, memex) = standard_world(false, 1);
    assert_eq!(community.bookmarks.len(), 484);
    let rebuilds = memex
        .registry()
        .snapshot()
        .counter("demon.folders.rebuilds");
    assert_eq!(rebuilds, FULL_REBUILDS, "full classifier rebuilds");
}
