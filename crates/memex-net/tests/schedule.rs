//! A seeded script served by one [`Service`] on one thread, one
//! `Service::handle` per step: every answer frame must be, byte for byte,
//! the answer of a twin fed the same write prefix, framed the same way.
//! Readers reload their questions between writes, so the read cache answers
//! many of them; a cached answer that outlives the write that changed it is
//! a byte mismatch on some seed. `Stats` and `Traces` are not asked: they
//! report on the service itself, so their answers differ from the twin's by
//! design.

use memex_bench::script::{self, Script};
use memex_net::Service;

#[test]
fn seeded_schedules_answer_every_step_as_the_twin_at_its_write_prefix() {
    let corpus = script::corpus(40);
    for seed in 0..8 {
        let service = Service::new(script::world(&corpus), 8);
        let mut twin = script::world(&corpus);
        Script::new(&corpus, seed, 24)
            .serve(&service, &mut twin)
            .unwrap_or_else(|e| panic!("seed {seed}, {e}"));
        let snap = service.into_memex().registry().snapshot();
        assert!(
            snap.counter("net.read.cache.hit") > 0,
            "seed {seed}: no read was a cache hit"
        );
    }
}
