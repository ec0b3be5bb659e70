//! The system under test, made query-ready: network build, mutable twin,
//! live cluster. This is what `setup_s` times.

use crate::host::{slowdown, Calibration};
use crate::workloads::{Inputs, Spec, BUILD_THREADS};
use roads_core::{BuildOptions, RoadsNetwork};
use roads_runtime::RoadsCluster;
use std::sync::Arc;
use std::time::Instant;

/// One query-ready federation.
pub struct System {
    /// The converged network as built. Live workloads serve queries from
    /// it (the cluster owns it); it never changes after set-up.
    pub base: Arc<RoadsNetwork>,
    /// The copy update rounds mutate (`update_round_delta`).
    pub twin: RoadsNetwork,
    /// The running cluster of a live workload.
    pub cluster: Option<RoadsCluster>,
}

/// Wall time of each set-up stage, generated records → query-ready.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub build_ms: f64,
    pub twin_clone_ms: f64,
    pub cluster_start_ms: f64,
    pub total_s: f64,
    /// Host slowdown while this repetition ran, from the reference kernel
    /// read before and after it.
    pub slowdown: f64,
}

pub fn setup(spec: &Spec, inputs: &Inputs, calib: &mut Calibration) -> (System, SetupTimes) {
    // The generated records are the input; copying them for this
    // repetition is not part of making the system ready.
    let records = inputs.records.clone();
    let schema = inputs.schema.clone();
    let delays = inputs.delays.clone();
    let before = calib.read_ms();

    let t0 = Instant::now();
    let net = RoadsNetwork::build_with(
        schema,
        spec.roads_config(),
        records,
        BuildOptions::with_threads(BUILD_THREADS),
    );
    let t1 = Instant::now();
    let twin = net.clone();
    let t2 = Instant::now();
    let (base, cluster) = if spec.live {
        let cluster = RoadsCluster::start(net, delays, spec.runtime_config());
        (cluster.shared_network(), Some(cluster))
    } else {
        (Arc::new(net), None)
    };
    let t3 = Instant::now();
    let after = calib.read_ms();

    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let times = SetupTimes {
        build_ms: ms(t0, t1),
        twin_clone_ms: ms(t1, t2),
        cluster_start_ms: ms(t2, t3),
        total_s: (t3 - t0).as_secs_f64(),
        slowdown: slowdown(&[before, after]),
    };
    (
        System {
            base,
            twin,
            cluster,
        },
        times,
    )
}

impl System {
    /// Stop every server and dispatcher thread and wait for them.
    pub fn shutdown(self) {
        if let Some(cluster) = self.cluster {
            cluster.shutdown();
        }
    }
}
