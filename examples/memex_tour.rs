//! A guided tour of every Memex capability on one simulated community —
//! the closest thing to the original demo session.
//!
//! ```text
//! cargo run --release --example memex_tour
//! ```

use std::sync::Arc;

use memex::cluster::scatter::ScatterGather;
use memex::core::memex::{Memex, MemexOptions};
use memex::core::servlet::{dispatch, Request, Response};
use memex::server::events::{ClientEvent, VisitEvent};
use memex::web::corpus::{Corpus, CorpusConfig};
use memex::web::surfer::{Community, SurferConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Memex tour: archiving and mining a community's surf trails ===\n");
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 5,
        pages_per_topic: 60,
        ..CorpusConfig::default()
    }));
    let community = Community::simulate(
        &corpus,
        &SurferConfig {
            num_users: 8,
            sessions_per_user: 10,
            ..SurferConfig::default()
        },
    );
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default())?;
    for u in &community.users {
        memex.register_user(u.user, &format!("user{}", u.user))?;
    }
    let mut bi = 0usize;
    for v in &community.visits {
        while bi < community.bookmarks.len() && community.bookmarks[bi].time <= v.time {
            let b = &community.bookmarks[bi];
            memex.submit(ClientEvent::Bookmark {
                user: b.user,
                page: b.page,
                url: corpus.pages[b.page as usize].url.clone(),
                folder: format!("/{}", b.folder),
                time: b.time,
            });
            bi += 1;
        }
        memex.submit(ClientEvent::Visit(VisitEvent {
            user: v.user,
            session: v.session,
            page: v.page,
            url: corpus.pages[v.page as usize].url.clone(),
            time: v.time,
            referrer: v.referrer,
        }));
    }
    memex.run_demons()?;
    let s = memex.server.stats();
    println!(
        "[archive] {} events in, {} pages indexed, {} bookmarks filed, 0 discarded\n",
        s.events_submitted, s.docs_indexed, s.bookmarks_recorded
    );

    let user = community.users[0].user;
    let topic = community.users[0].interests[0];

    // --- 1. Ranked recall with snippets.
    println!("[1] ranked recall: \"{}\"", corpus.topic_names[topic]);
    for h in memex.recall(user, &corpus.topic_names[topic], 0, u64::MAX, 3)? {
        println!("    {:.2}  {}\n          \"{}\"", h.score, h.url, h.snippet);
    }

    // --- 2. Trail tab.
    let folder = memex
        .folder_space(user)
        .add_folder(&format!("/{}", corpus.topic_names[topic]));
    let ctx = memex.topic_context(user, folder, 0, 8);
    println!(
        "\n[2] trail tab /{}: {} pages, {} links",
        corpus.topic_names[topic],
        ctx.nodes.len(),
        ctx.edges.len()
    );

    // --- 3. Folder proposals for loose pages.
    println!("\n[3] proposed folders for unfiled history:");
    for p in memex.propose_folders(user, 4).into_iter().take(3) {
        println!("    \"{}\"  ({} pages)", p.name, p.pages.len());
    }

    // --- 4. Scatter/Gather browsing over the user's whole history.
    let pages = memex.server.trails.user_pages(user, 0);
    let docs: Vec<memex::text::vector::SparseVec> =
        pages.iter().filter_map(|&p| memex.page_vector(p)).collect();
    let sg = ScatterGather::new(&docs, &memex.server.vocab, 4, 1);
    println!("\n[4] scatter/gather over {} history pages:", docs.len());
    for view in sg.scatter() {
        println!(
            "    [{} docs] {}",
            view.members.len(),
            view.summary.join(", ")
        );
    }

    // --- 5. Community map + my place + similar surfers.
    let (themes, _) = memex.community_themes().clone();
    println!(
        "\n[5] community themes ({} themes, {} merges/{} refines/{} coarsens):",
        themes.themes.len(),
        themes.merges,
        themes.refines,
        themes.coarsens
    );
    println!("    my place: {:?}", memex.my_place(user).first());
    println!("    similar surfers: {:?}", memex.similar_surfers(user, 2));

    // --- 6. Recommendation + bill via the servlet boundary.
    if let Response::Recommend(recs) = dispatch(&mut memex, Request::Recommend { user, k: 3 }) {
        println!("\n[6] recommendations: {recs:?}");
    }
    if let Response::Bill(lines) = dispatch(
        &mut memex,
        Request::Bill {
            user,
            since: 0,
            until: u64::MAX,
        },
    ) {
        println!(
            "    bill: {} folders, top = {} ({:.0}%)",
            lines.len(),
            lines[0].folder,
            100.0 * lines[0].fraction
        );
    }
    println!("\ntour complete.");
    Ok(())
}
