//! Seeded input generators. Every workload input — the fabric spec, the
//! request order, the `hsa` sample, the delta ops and the ACL/route-map
//! families — is a pure function of the `--seed` argument, so the same
//! seed always gives the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rzen_engine::Query;
use rzen_net::spec::{self, Spec};

/// Host-facing port of every leaf.
pub const HOST_PORT: u8 = 99;

/// Destination ports the host-port ACLs deny (well-known services).
const PORT_POOL: [u16; 12] = [22, 23, 25, 53, 80, 123, 161, 179, 443, 445, 3389, 8080];

/// A seeded spine-leaf fabric: every leaf links to every spine, leaf `l`
/// owns `10.l.0.0/16` behind port 99, and host ports carry seeded ACLs.
pub struct Fabric {
    /// Spine count.
    pub spines: usize,
    /// Leaf count.
    pub leaves: usize,
    /// The spec text handed to `rzen-cli serve`.
    pub text: String,
    /// The same spec, parsed in-process.
    pub spec: Spec,
}

/// One host-port ACL: the spec shorthand and the direction it sits in.
#[derive(Clone, Debug)]
pub struct HostAcl {
    pub dir: &'static str,
    pub acl: String,
}

/// One host-port ACL of the given kind (0..5) for leaf `leaf`, with
/// seeded parameters. Kind 4 is "no ACL".
fn host_acl(
    kind: usize,
    dir: &'static str,
    leaf: usize,
    rng: &mut StdRng,
    leaves: usize,
) -> Option<HostAcl> {
    let acl = match kind {
        0 => {
            let p = PORT_POOL[rng.gen_range(0..PORT_POOL.len())];
            format!("deny-dport {p} {p}")
        }
        1 => {
            let lo = PORT_POOL[rng.gen_range(0..PORT_POOL.len())];
            let hi = lo + rng.gen_range(1u16..2000);
            format!("deny-dport {lo} {hi}")
        }
        // Permit the whole fabric, or one other leaf's prefix only.
        2 => "permit-dst 10.0.0.0/8".to_string(),
        3 => format!("permit-dst 10.{}.0.0/16", (leaf + 1) % leaves),
        _ => return None,
    };
    Some(HostAcl { dir, acl })
}

/// Build the seeded fabric. Every fabric of one size carries the same
/// mix of host-port ACLs (kind by leaf position, direction alternating,
/// one leaf in five without an ACL) and the same uplink rule (leaf `l`
/// reaches leaf `m`'s prefix through spine `(l + m) % spines`); the seed
/// permutes which leaf gets which ACL and draws the ACL parameters. So
/// seeds change the inputs but not how much work the fabric is.
pub fn fabric(spines: usize, leaves: usize, seed: u64) -> Fabric {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6661_6272_6963);
    let mut slots: Vec<usize> = (0..leaves).collect();
    shuffle(&mut slots, &mut rng);
    let mut text = format!("# perfbench fabric: {spines} spines x {leaves} leaves, seed {seed}\n");
    for s in 0..spines {
        text.push_str(&format!("device spine{s}\n"));
        for l in 0..leaves {
            text.push_str(&format!("  intf {}\n", l + 1));
        }
    }
    for (l, &slot) in slots.iter().enumerate() {
        text.push_str(&format!("device leaf{l}\n"));
        for s in 0..spines {
            text.push_str(&format!("  intf {}\n", s + 1));
        }
        let dir = if slot % 2 == 0 { "in" } else { "out" };
        match host_acl(slot % 5, dir, l, &mut rng, leaves) {
            Some(a) => text.push_str(&format!("  intf {HOST_PORT} acl-{} {}\n", a.dir, a.acl)),
            None => text.push_str(&format!("  intf {HOST_PORT}\n")),
        }
    }
    for s in 0..spines {
        for l in 0..leaves {
            text.push_str(&format!("route spine{s} 10.{l}.0.0/16 {}\n", l + 1));
        }
    }
    for l in 0..leaves {
        text.push_str(&format!("route leaf{l} 10.{l}.0.0/16 {HOST_PORT}\n"));
        for m in (0..leaves).filter(|&m| m != l) {
            text.push_str(&format!(
                "route leaf{l} 10.{m}.0.0/16 {}\n",
                (l + m) % spines + 1
            ));
        }
    }
    for l in 0..leaves {
        for s in 0..spines {
            text.push_str(&format!("link leaf{l}:{} spine{s}:{}\n", s + 1, l + 1));
        }
    }
    let spec = spec::parse(&text).expect("generated fabric spec parses");
    Fabric {
        spines,
        leaves,
        text,
        spec,
    }
}

/// The kind of one served request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Reach,
    Drops,
    Hsa,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Reach => "reach",
            Kind::Drops => "drops",
            Kind::Hsa => "hsa",
        }
    }
}

/// One served request: its wire line (newline-terminated) and what it asks.
#[derive(Clone, Debug)]
pub struct Request {
    pub kind: Kind,
    pub src: (usize, u8),
    pub dst: (usize, u8),
    pub line: String,
}

impl Request {
    /// The engine query this request resolves to on `spec` (`None` for
    /// `hsa`, which the server answers outside the engine).
    pub fn query(&self, spec: &Spec) -> Option<Query> {
        let net = spec.net.clone();
        let (src, dst) = (self.src, self.dst);
        match self.kind {
            Kind::Reach => Some(Query::Reach { net, src, dst }),
            Kind::Drops => Some(Query::Drops { net, src, dst }),
            Kind::Hsa => None,
        }
    }
}

/// Every ordered host-port pair once as `reach` and once as `drops`, plus
/// `hsa` on a seeded tenth of the pairs (rounded up), in seeded order.
pub fn requests(spec: &Spec, seed: u64, with_hsa: bool) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_7173);
    let edges = spec.edge_ports();
    let pairs: Vec<_> = edges
        .iter()
        .flat_map(|&s| edges.iter().filter(move |&&d| d != s).map(move |&d| (s, d)))
        .collect();
    let mut hsa = vec![false; pairs.len()];
    if with_hsa {
        hsa[..pairs.len().div_ceil(10)].fill(true);
        shuffle(&mut hsa, &mut rng);
    }
    let mut out = Vec::new();
    for (&(src, dst), &h) in pairs.iter().zip(&hsa) {
        let kinds: &[Kind] = if h {
            &[Kind::Reach, Kind::Drops, Kind::Hsa]
        } else {
            &[Kind::Reach, Kind::Drops]
        };
        for &kind in kinds {
            let line = format!(
                "{{\"op\":\"{}\",\"src\":\"{}\",\"dst\":\"{}\"}}\n",
                kind.name(),
                spec.endpoint_name(src),
                spec.endpoint_name(dst)
            );
            out.push(Request {
                kind,
                src,
                dst,
                line,
            });
        }
    }
    shuffle(&mut out, &mut rng);
    out
}

/// Fisher–Yates with the vendored RNG.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// One churn step: the op line posted to `/delta` and the line that
/// undoes it.
#[derive(Clone, Debug)]
pub struct Churn {
    /// `small-cone` (a leaf host-port ACL) or `large-cone` (a spine link).
    pub cone: &'static str,
    pub apply: String,
    pub revert: String,
}

/// The seeded delta sequence: churn steps alternate between a small cone
/// (`set-acl`/`remove-acl` on a leaf host port) and a large cone
/// (`link-down`/`link-up` on a spine link). Each step is posted and then
/// reverted, so the model returns to the base fabric every other round.
pub fn churn(fabric: &Fabric, seed: u64, steps: usize) -> Vec<Churn> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0063_6875_726e);
    (0..steps)
        .map(|i| {
            let l = rng.gen_range(0..fabric.leaves);
            if i % 2 == 0 {
                let dev = l + fabric.spines;
                let intf = fabric.spec.net.devices[dev]
                    .interface(HOST_PORT)
                    .expect("host port");
                let dir = if (i / 2) % 2 == 0 { "in" } else { "out" };
                let a = host_acl((i / 2) % 4, dir, l, &mut rng, fabric.leaves).expect("kinds 0..4 carry an ACL");
                let existing = if a.dir == "in" {
                    intf.acl_in.as_ref()
                } else {
                    intf.acl_out.as_ref()
                };
                let set = |acl: &str| {
                    format!(
                        "{{\"op\":\"set-acl\",\"device\":\"leaf{l}\",\"intf\":{HOST_PORT},\"dir\":\"{}\",\"acl\":\"{acl}\"}}",
                        a.dir
                    )
                };
                let revert = match existing {
                    Some(acl) => set(&spec::acl_shorthand(acl).expect("shorthand ACL")),
                    None => format!(
                        "{{\"op\":\"remove-acl\",\"device\":\"leaf{l}\",\"intf\":{HOST_PORT},\"dir\":\"{}\"}}",
                        a.dir
                    ),
                };
                Churn {
                    cone: "small-cone",
                    apply: set(&a.acl),
                    revert,
                }
            } else {
                let s = rng.gen_range(0..fabric.spines);
                let link = |op: &str| {
                    format!(
                        "{{\"op\":\"{op}\",\"a\":\"leaf{l}:{}\",\"b\":\"spine{s}:{}\"}}",
                        s + 1,
                        l + 1
                    )
                };
                Churn {
                    cone: "large-cone",
                    apply: link("link-down"),
                    revert: link("link-up"),
                }
            }
        })
        .collect()
}

/// One batch of the batch workload: seeded ACL families, each with
/// several target lines (one of them a deliberately shadowed copy of an
/// earlier rule), and seeded route-map families with several target
/// clauses.
pub fn acl_batch(seed: u64, acl_families: usize, map_families: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6163_6c62);
    let mut out = Vec::new();
    for _ in 0..acl_families {
        let n = rng.gen_range(40..60);
        let mut acl = rzen_net::gen::random_acl(n, rng.gen());
        // Shadow: a later copy of an earlier rule can never decide a header.
        let from = rng.gen_range(0..acl.rules.len() - 1);
        let at = rng.gen_range(from + 1..acl.rules.len());
        let copy = acl.rules[from].clone();
        acl.rules.insert(at, copy);
        let shadowed = at as u16 + 1;
        let mut targets = vec![shadowed, acl.rules.len() as u16];
        while targets.len() < 8 {
            let t = rng.gen_range(1..=acl.rules.len() as u16);
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for target_line in targets {
            out.push(Query::AclFind {
                acl: acl.clone(),
                target_line,
            });
        }
    }
    for _ in 0..map_families {
        let n = rng.gen_range(12..20);
        let map = rzen_net::gen::random_route_map(n, rng.gen());
        let mut targets = vec![map.clauses.len() as u16];
        while targets.len() < 4 {
            let t = rng.gen_range(1..=map.clauses.len() as u16);
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for target_clause in targets {
            out.push(Query::RouteMapFind {
                map: map.clone(),
                target_clause,
                list_bound: 3,
            });
        }
    }
    shuffle(&mut out, &mut rng);
    out
}
