//! Tiny-size runs of every workload: each must pass its output checks,
//! complete every operation, and emit well-formed metrics.

use now_sim::SimDuration;
use perfbench::episode::{Episode, Workload};
use perfbench::formation::Formation;
use perfbench::metrics::{valid_name, valid_unit};
use perfbench::trading::Trading;

fn check(name: &str, w: &dyn Workload, traced: bool) -> Episode {
    let e = w.episode(7, traced);
    assert!(
        e.broken.is_empty(),
        "{name}: broken invariants {:?}",
        e.broken
    );
    assert!(e.ops > 0, "{name}: no operations");
    assert_eq!(e.failed, 0, "{name}: failed operations; {:?}", e.lines);
    assert!(
        e.measure_s > 0.0 && e.setup_s > 0.0,
        "{name}: untimed phases"
    );
    assert_eq!(
        e.proto_lat_ms.len() as u64,
        e.ops,
        "{name}: one latency per operation"
    );
    if traced {
        assert!(
            !e.layers.is_empty(),
            "{name}: traced run without per-layer metrics"
        );
    }
    for m in &e.layers {
        assert!(valid_name(&m.name), "{name}: bad metric name {}", m.name);
        assert!(valid_unit(m.unit), "{name}: bad unit {}", m.unit);
    }
    e
}

#[test]
fn tiny_formation_passes_its_checks() {
    let w = Formation {
        n: 40,
        settle: SimDuration::from_millis(200),
    };
    let e = check("formation", &w, true);
    let names: Vec<&str> = e.layers.iter().map(|m| m.name.as_str()).collect();
    for want in [
        "sim.events",
        "sim.self_s",
        "core.InstallView.n",
        "hier.Ctl.JoinLargeReq.n",
        "hier.Ctl.max_msg_bytes",
    ] {
        assert!(
            names.contains(&want),
            "formation ledger lacks {want}: {names:?}"
        );
    }
}

#[test]
fn tiny_trading_passes_its_checks_and_names_the_growth_bucket() {
    let w = Trading {
        analysts: 30,
        quotes: 20,
        rate: 200,
    };
    let e = check("trading", &w, true);
    assert!(
        e.lines
            .iter()
            .any(|l| l.contains("the bucket behind the growth is")),
        "{:?}",
        e.lines
    );
    let names: Vec<&str> = e.layers.iter().map(|m| m.name.as_str()).collect();
    assert!(names.contains(&"hier.Tree.LeafDeliver.s"), "{names:?}");
}
