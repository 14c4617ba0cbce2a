//! Deeper isis-core machinery tests: multi-group processes, stale and
//! cross-view traffic, message categories, state transfer under load,
//! and client-style direct traffic.

use isis_core::testutil::{cluster, RecorderApp};
use isis_core::{CastKind, GroupId, IsisConfig, IsisProcess};
use now_sim::{Pid, Sim, SimConfig, SimDuration, SimTime};

#[test]
fn one_process_in_many_groups() {
    // Three groups with overlapping membership; traffic in each stays in
    // each, and the per-group logs are independent.
    let mut sim: Sim<IsisProcess<RecorderApp>> = Sim::new(SimConfig::ideal(1));
    let nodes = sim.add_nodes(4);
    let pids: Vec<Pid> = nodes
        .iter()
        .map(|&n| sim.spawn(n, IsisProcess::with_defaults(RecorderApp::default())))
        .collect();
    let (g1, g2, g3) = (GroupId(1), GroupId(2), GroupId(3));
    sim.invoke(pids[0], move |p, ctx| p.create_group(g1, ctx).unwrap());
    sim.invoke(pids[0], move |p, ctx| p.create_group(g2, ctx).unwrap());
    sim.invoke(pids[1], move |p, ctx| p.create_group(g3, ctx).unwrap());
    let contact = pids[0];
    for &p in &pids[1..3] {
        sim.invoke(p, move |proc_, ctx| proc_.join(g1, contact, ctx).unwrap());
    }
    sim.invoke(pids[3], move |p, ctx| p.join(g2, contact, ctx).unwrap());
    let c1 = pids[1];
    sim.invoke(pids[2], move |p, ctx| p.join(g3, c1, ctx).unwrap());
    sim.run_for(SimDuration::from_secs(20));

    assert_eq!(sim.process(pids[0]).group_ids(), vec![g1, g2]);
    assert_eq!(sim.process(pids[1]).group_ids(), vec![g1, g3]);

    sim.invoke(pids[0], move |p, ctx| {
        p.cast(g1, CastKind::Total, "to-g1".into(), ctx).unwrap();
        p.cast(g2, CastKind::Total, "to-g2".into(), ctx).unwrap();
    });
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(sim.process(pids[1]).app().payloads(g1), vec!["to-g1"]);
    assert!(sim.process(pids[1]).app().payloads(g2).is_empty());
    assert_eq!(sim.process(pids[3]).app().payloads(g2), vec!["to-g2"]);
}

#[test]
fn per_category_send_counters_are_populated() {
    let mut c = cluster(3, IsisConfig::default(), 5);
    let _gid = c.gid;
    c.cast_and_settle(c.pids[0], CastKind::Total, "x");
    c.cast_and_settle(c.pids[1], CastKind::Causal, "y");
    c.sim.run_for(SimDuration::from_secs(2));
    let st = c.sim.stats();
    assert!(st.counter("isis.sent.cast_total") >= 2);
    assert!(st.counter("isis.sent.abcast_order") >= 2);
    assert!(st.counter("isis.sent.cast_causal") >= 2);
    assert!(st.counter("isis.sent.heartbeat") > 0);
    assert!(st.counter("isis.sent.install") >= 2, "joins installed views");
    assert_sent_counters_sum_to_messages_sent(&c.sim);

    // A crash drives the suspect/flush/install paths; every send they make
    // is classified too.
    c.sim.crash(c.pids[2]);
    c.await_membership(2, SimDuration::from_secs(30));
    c.cast_and_settle(c.pids[0], CastKind::Fifo, "z");
    let st = c.sim.stats();
    assert!(st.counter("isis.sent.flush") > 0);
    assert!(st.counter("isis.sent.cast_fifo") > 0);
    assert_sent_counters_sum_to_messages_sent(&c.sim);
}

/// Every core send bumps exactly one `isis.sent.*` counter, so the
/// per-category counters add up to the engine's own send count.
fn assert_sent_counters_sum_to_messages_sent(sim: &Sim<IsisProcess<RecorderApp>>) {
    let st = sim.stats();
    let classified: u64 = st
        .counters()
        .iter()
        .filter(|(name, _)| name.starts_with("isis.sent."))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(classified, st.messages_sent);
}

#[test]
fn direct_messages_bypass_groups() {
    let mut c = cluster(2, IsisConfig::quiet(), 7);
    let (a, b) = (c.pids[0], c.pids[1]);
    c.sim.invoke(a, move |p, ctx| {
        p.send_direct(b, "psst".into(), ctx);
    });
    c.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(c.sim.process(b).app().directs, vec![(a, "psst".to_string())]);
    // No group delivery happened.
    assert!(c.sim.process(b).app().payloads(c.gid).is_empty());
}

#[test]
fn state_transfer_reflects_all_prior_deliveries_under_load() {
    let mut c = cluster(3, IsisConfig::default(), 11);
    let gid = c.gid;
    for i in 0..25 {
        let s = c.pids[i % 3];
        c.sim.invoke(s, move |p, ctx| {
            p.cast(gid, CastKind::Total, format!("h{i}"), ctx).unwrap();
        });
    }
    c.sim.run_for(SimDuration::from_secs(5));
    // Join mid-stream while more casts are flowing.
    let nd = c.sim.add_nodes(1)[0];
    let newbie = c
        .sim
        .spawn(nd, IsisProcess::with_defaults(RecorderApp::default()));
    let contact = c.pids[0];
    c.sim.invoke(newbie, move |p, ctx| p.join(gid, contact, ctx).unwrap());
    for i in 25..35 {
        let s = c.pids[i % 3];
        c.sim.invoke(s, move |p, ctx| {
            let _ = p.cast(gid, CastKind::Total, format!("h{i}"), ctx);
        });
        c.sim.run_for(SimDuration::from_millis(100));
    }
    c.pids.push(newbie);
    c.await_membership(4, SimDuration::from_secs(60));
    c.sim.run_for(SimDuration::from_secs(10));

    // The newbie's snapshot plus its own deliveries cover the full stream
    // with no gaps or duplicates.
    let app = c.sim.process(newbie).app();
    let mut all: Vec<String> = app.imported.clone().unwrap_or_default();
    all.extend(app.payloads(gid));
    let mut sorted = all.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "snapshot/delivery overlap");
    assert_eq!(all.len(), 35, "snapshot + deliveries must cover everything");
}

#[test]
fn stale_group_traffic_after_leaving_is_ignored() {
    let mut c = cluster(3, IsisConfig::default(), 13);
    let gid = c.gid;
    let leaver = c.pids[2];
    c.sim.invoke(leaver, move |p, ctx| p.leave(gid, ctx).unwrap());
    c.await_membership(2, SimDuration::from_secs(60));
    let before = c.sim.process(leaver).app().payloads(gid).len();
    c.cast_and_settle(c.pids[0], CastKind::Total, "post-leave");
    assert_eq!(
        c.sim.process(leaver).app().payloads(gid).len(),
        before,
        "a departed member must not receive group casts"
    );
}

#[test]
fn acked_cast_counts_survivors_only() {
    let mut c = cluster(5, IsisConfig::default(), 17);
    let gid = c.gid;
    let s = c.pids[0];
    // Crash one member, then fire an acked cast: at most 3 acks arrive.
    c.sim.crash(c.pids[4]);
    c.await_membership(4, SimDuration::from_secs(60));
    c.sim.invoke(s, move |p, ctx| {
        p.cast_acked(gid, CastKind::Causal, "count-me".into(), ctx)
            .unwrap();
    });
    c.sim.run_for(SimDuration::from_secs(5));
    let max_acks = c
        .sim
        .process(s)
        .app()
        .acks
        .iter()
        .map(|(_, n)| *n)
        .max()
        .unwrap_or(0);
    assert_eq!(max_acks, 3, "acks from the three live peers");
}

#[test]
fn wire_sizes_feed_the_byte_counters() {
    let mut c = cluster(3, IsisConfig::quiet(), 19);
    let gid = c.gid;
    c.sim.stats_mut().reset_window();
    let big = "x".repeat(2_000);
    c.sim.invoke(c.pids[0], move |p, ctx| {
        p.cast(gid, CastKind::Fifo, big, ctx).unwrap();
    });
    c.sim.run_for(SimDuration::from_secs(2));
    let st = c.sim.stats();
    assert!(
        st.bytes_sent >= 4_000,
        "two copies of a 2 KB payload: {} bytes",
        st.bytes_sent
    );
}

#[test]
fn causal_delay_counter_fires_under_cross_site_topology() {
    // a and b share a site; c is remote. b's reply (caused by a's message)
    // can reach c before a's original: the causal buffer must hold it.
    let mut sim: Sim<IsisProcess<RecorderApp>> = Sim::new(SimConfig::lan(23));
    let n_a = sim.add_node(now_sim::SiteId(0));
    let n_b = sim.add_node(now_sim::SiteId(0));
    let n_c = sim.add_node(now_sim::SiteId(1));
    let a = sim.spawn(n_a, IsisProcess::with_defaults(RecorderApp::default()));
    let b = sim.spawn(n_b, IsisProcess::with_defaults(RecorderApp::default()));
    let c = sim.spawn(n_c, IsisProcess::with_defaults(RecorderApp::default()));
    let gid = GroupId(1);
    sim.invoke(a, move |p, ctx| p.create_group(gid, ctx).unwrap());
    for &p in &[b, c] {
        sim.invoke(p, move |proc_, ctx| proc_.join(gid, a, ctx).unwrap());
    }
    let deadline = SimTime(0) + SimDuration::from_secs(120);
    while sim.now() < deadline {
        let ok = [a, b, c]
            .iter()
            .all(|&p| sim.process(p).view_of(gid).is_some_and(|v| v.size() == 3));
        if ok {
            break;
        }
        sim.step();
    }
    let mut delayed_total = 0;
    for round in 0..40 {
        // a sends a large m1 (slow over the WAN); b replies with a tiny m2
        // as soon as it sees m1.
        let payload = "m".repeat(1_500) + &round.to_string();
        sim.invoke(a, move |p, ctx| {
            let _ = p.cast(gid, CastKind::Causal, payload, ctx);
        });
        let before = sim.process(b).app().payloads(gid).len();
        let d2 = sim.now() + SimDuration::from_secs(5);
        while sim.process(b).app().payloads(gid).len() == before && sim.now() < d2 {
            sim.step();
        }
        sim.invoke(b, move |p, ctx| {
            let _ = p.cast(gid, CastKind::Causal, format!("r{round}"), ctx);
        });
        sim.run_for(SimDuration::from_millis(200));
        delayed_total = sim.stats().counter("isis.causal_delayed");
    }
    sim.run_for(SimDuration::from_secs(10));
    assert!(
        delayed_total > 0,
        "the topology must force at least one causally-held delivery"
    );
    // And the remote member still saw every m before its r.
    let log = sim.process(c).app().payloads(gid);
    for round in 0..40 {
        let m = log.iter().position(|x| x.ends_with(&round.to_string()) && x.starts_with('m'));
        let r = log.iter().position(|x| *x == format!("r{round}"));
        if let (Some(mi), Some(ri)) = (m, r) {
            assert!(mi < ri, "round {round}: reply before cause at {mi}/{ri}");
        }
    }
}
