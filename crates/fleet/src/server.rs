//! Server fleet model with mixed hardware generations (§2).
//!
//! "A hyperscale environment … exhibits high variance due to factors like
//! mixed server generations." A generation carries a performance multiplier
//! (the same code costs different CPU on different hardware) and its own
//! noise level; the §2 simulation explicitly uses two generations with
//! different means, variances, and even different regression magnitudes.

use crate::{FleetError, Result};

/// A hardware generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerGeneration {
    /// CPU-cost multiplier relative to the reference generation (older
    /// hardware > 1.0).
    pub cpu_multiplier: f64,
    /// Standard deviation of per-sample measurement noise.
    pub noise_std: f64,
    /// Regression-magnitude multiplier: "a code change may perform
    /// differently across server generations" (§2).
    pub regression_multiplier: f64,
}

/// One server: an id and its generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Server {
    /// Fleet-unique id.
    pub id: u32,
    /// Index into the fleet's generation table.
    pub generation: usize,
}

/// A fleet of servers split across generations.
#[derive(Debug, Clone)]
pub struct Fleet {
    generations: Vec<ServerGeneration>,
    servers: Vec<Server>,
}

impl Fleet {
    /// Builds a fleet of `n` servers spread across `generations` by the
    /// given fractions (must sum to ~1).
    pub fn new(n: usize, generations: Vec<ServerGeneration>, fractions: &[f64]) -> Result<Self> {
        if generations.is_empty() {
            return Err(FleetError::InvalidConfig("no server generations"));
        }
        if generations.len() != fractions.len() {
            return Err(FleetError::InvalidConfig(
                "fractions must match generations",
            ));
        }
        let total: f64 = fractions.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(FleetError::InvalidConfig("fractions must sum to 1"));
        }
        if n == 0 {
            return Err(FleetError::InvalidConfig("fleet must have servers"));
        }
        let mut servers = Vec::with_capacity(n);
        let mut assigned = 0usize;
        for (g, &f) in fractions.iter().enumerate() {
            let count = if g + 1 == fractions.len() {
                n - assigned
            } else {
                (f * n as f64).round() as usize
            };
            for _ in 0..count.min(n - assigned) {
                servers.push(Server {
                    id: servers.len() as u32,
                    generation: g,
                });
                assigned += 1;
            }
        }
        // Rounding may leave a straggler; assign to the last generation.
        while servers.len() < n {
            servers.push(Server {
                id: servers.len() as u32,
                generation: generations.len() - 1,
            });
        }
        Ok(Fleet {
            generations,
            servers,
        })
    }

    /// A homogeneous single-generation fleet.
    pub fn homogeneous(n: usize, generation: ServerGeneration) -> Result<Self> {
        Fleet::new(n, vec![generation], &[1.0])
    }

    /// The paper's §2 two-generation setup: half the fleet at one
    /// performance level, half at another, with distinct noise.
    pub fn two_generations(n: usize) -> Result<Self> {
        Fleet::new(
            n,
            vec![
                ServerGeneration {
                    cpu_multiplier: 0.8,
                    noise_std: 0.1,
                    regression_multiplier: 0.6,
                },
                ServerGeneration {
                    cpu_multiplier: 1.2,
                    noise_std: 0.141_4,
                    regression_multiplier: 1.4,
                },
            ],
            &[0.5, 0.5],
        )
    }

    /// All servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the fleet is empty (never true for built fleets).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The generation record for a server.
    pub fn generation_of(&self, server: &Server) -> &ServerGeneration {
        &self.generations[server.generation]
    }

    /// The generation table.
    pub fn generations(&self) -> &[ServerGeneration] {
        &self.generations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(mult: f64) -> ServerGeneration {
        ServerGeneration {
            cpu_multiplier: mult,
            noise_std: 0.1,
            regression_multiplier: 1.0,
        }
    }

    #[test]
    fn split_matches_fractions() {
        let f = Fleet::new(100, vec![gen(1.0), gen(2.0)], &[0.3, 0.7]).unwrap();
        let g0 = f.servers().iter().filter(|s| s.generation == 0).count();
        assert_eq!(g0, 30);
        assert_eq!(f.len(), 100);
    }

    #[test]
    fn uneven_division_fills_fleet() {
        let f = Fleet::new(7, vec![gen(1.0), gen(2.0), gen(3.0)], &[0.33, 0.33, 0.34]).unwrap();
        assert_eq!(f.len(), 7);
        let ids: Vec<u32> = f.servers().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Fleet::new(10, vec![], &[]).is_err());
        assert!(Fleet::new(10, vec![gen(1.0)], &[0.5]).is_err());
        assert!(Fleet::new(0, vec![gen(1.0)], &[1.0]).is_err());
        assert!(Fleet::new(10, vec![gen(1.0), gen(2.0)], &[1.0]).is_err());
    }

    #[test]
    fn two_generation_preset() {
        let f = Fleet::two_generations(1000).unwrap();
        assert_eq!(f.len(), 1000);
        let g0 = f.servers().iter().filter(|s| s.generation == 0).count();
        assert_eq!(g0, 500);
        // The two generations differ in performance and regression impact.
        assert!(f.generations()[0].cpu_multiplier < f.generations()[1].cpu_multiplier);
        assert!(
            f.generations()[0].regression_multiplier < f.generations()[1].regression_multiplier
        );
    }

    #[test]
    fn generation_lookup() {
        let f = Fleet::new(4, vec![gen(1.0), gen(2.0)], &[0.5, 0.5]).unwrap();
        let s = f.servers()[3];
        assert_eq!(f.generation_of(&s).cpu_multiplier.to_bits(), 2.0_f64.to_bits());
    }
}
