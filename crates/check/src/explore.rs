//! Exhaustive breadth-first exploration of the model's reachable states.
//!
//! Every reachable state (for a small configuration) is checked against the
//! full invariant catalog via [`check_view`]; because the search is
//! breadth-first, the event path attached to a violation is a *shortest*
//! counterexample trace.

use lad_common::collections::FastMap;

use crate::catalog::Violation;
use crate::model::{Event, Model};
use crate::view::check_view;

/// Knobs for one exploration run.
#[derive(Debug, Clone, Copy)]
pub struct ExploreOptions {
    /// Stop at the first violating state instead of exploring on.
    pub stop_on_violation: bool,
    /// Hard cap on the number of distinct states visited (a safety net for
    /// misconfigured large models, not a limit any small config reaches).
    pub max_states: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            stop_on_violation: false,
            max_states: 2_000_000,
        }
    }
}

/// A catalog violation together with the shortest event path that reaches
/// the violating state from the initial (all-invalid) state.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// The violated invariants in the reached state.
    pub violations: Vec<Violation>,
    /// The events leading from the initial state to the violating state.
    pub trace: Vec<Event>,
}

impl FoundViolation {
    /// Renders the counterexample as a numbered event list followed by the
    /// violations.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("counterexample trace:\n");
        for (i, event) in self.trace.iter().enumerate() {
            out.push_str(&format!("  {}. {event}\n", i + 1));
        }
        for violation in &self.violations {
            out.push_str(&format!("  => {violation}\n"));
        }
        out
    }
}

/// The result of an exploration.
#[derive(Debug)]
pub struct Exploration {
    /// Number of distinct states visited (including the initial state).
    pub states: usize,
    /// Number of transitions applied.
    pub transitions: usize,
    /// `true` if the run stopped at [`ExploreOptions::max_states`] before
    /// exhausting the reachable set.
    pub truncated: bool,
    /// Every violating state found (first occurrence per state; shortest
    /// trace each).
    pub violations: Vec<FoundViolation>,
}

impl Exploration {
    /// `true` when the whole reachable set satisfied the catalog.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }
}

struct Node {
    parent: Option<(usize, Event)>,
}

fn trace_to(nodes: &[Node], mut index: usize) -> Vec<Event> {
    let mut trace = Vec::new();
    while let Some((parent, event)) = nodes[index].parent {
        trace.push(event);
        index = parent;
    }
    trace.reverse();
    trace
}

/// Explores every state of `model` reachable from the initial state.
pub fn explore(model: &Model, options: ExploreOptions) -> Exploration {
    let initial = model.initial();
    let mut nodes = vec![Node { parent: None }];
    let mut states = vec![initial.clone()];
    // Lookup only: the visit order comes from `states`, never from `seen`.
    let mut seen: FastMap<Vec<u8>, usize> = FastMap::default();
    seen.insert(model.encode(&initial), 0);

    let mut transitions = 0usize;
    let mut truncated = false;
    let mut violations = Vec::new();

    let initial_violations = check_view(&model.view(&initial));
    if !initial_violations.is_empty() {
        violations.push(FoundViolation {
            violations: initial_violations,
            trace: Vec::new(),
        });
        if options.stop_on_violation {
            return Exploration {
                states: 1,
                transitions: 0,
                truncated: false,
                violations,
            };
        }
    }

    let mut frontier = 0usize;
    'bfs: while frontier < states.len() {
        let events = model.enabled_events(&states[frontier]);
        for event in events {
            let mut next = states[frontier].clone();
            model.apply(&mut next, event);
            transitions += 1;
            let key = model.encode(&next);
            if seen.contains_key(&key) {
                continue;
            }
            let index = states.len();
            seen.insert(key, index);
            nodes.push(Node {
                parent: Some((frontier, event)),
            });

            let state_violations = check_view(&model.view(&next));
            states.push(next);
            if !state_violations.is_empty() {
                violations.push(FoundViolation {
                    violations: state_violations,
                    trace: trace_to(&nodes, index),
                });
                if options.stop_on_violation {
                    break 'bfs;
                }
            }
            if states.len() >= options.max_states {
                truncated = true;
                break 'bfs;
            }
        }
        frontier += 1;
    }

    Exploration {
        states: states.len(),
        transitions,
        truncated,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, ModelConfig, Mutant};
    use lad_replication::policy::SchemeRegistry;
    use lad_replication::scheme::SchemeId;

    fn explore_scheme(
        id: SchemeId,
        config: ModelConfig,
        mutant: Option<Mutant>,
        options: ExploreOptions,
    ) -> Exploration {
        let registry = SchemeRegistry::builtin();
        let scheme = registry.get(id).expect("builtin scheme");
        explore(&Model::new(scheme, config, mutant), options)
    }

    #[test]
    fn two_core_static_nuca_is_clean_and_small() {
        let exploration = explore_scheme(
            SchemeId::StaticNuca,
            ModelConfig {
                cores: 2,
                lines: 1,
                ackwise_pointers: 2,
            },
            None,
            ExploreOptions::default(),
        );
        assert!(exploration.is_clean(), "{:?}", exploration.violations);
        assert!(exploration.states > 1);
        assert!(exploration.transitions >= exploration.states - 1);
    }

    #[test]
    fn three_core_locality_aware_is_clean_through_global_mode() {
        // Two ACKwise pointers and three cores force global (broadcast)
        // mode, exercising the overflow paths.
        let exploration = explore_scheme(
            SchemeId::Rt(1),
            ModelConfig {
                cores: 3,
                lines: 1,
                ackwise_pointers: 2,
            },
            None,
            ExploreOptions::default(),
        );
        assert!(exploration.is_clean(), "{:?}", exploration.violations);
    }

    #[test]
    fn dropped_invalidation_is_caught_with_a_short_trace() {
        let exploration = explore_scheme(
            SchemeId::StaticNuca,
            ModelConfig::default(),
            Some(Mutant::DropInvalidation),
            ExploreOptions {
                stop_on_violation: true,
                ..ExploreOptions::default()
            },
        );
        assert!(!exploration.violations.is_empty());
        let found = &exploration.violations[0];
        assert!(!found.trace.is_empty(), "a violation needs a cause");
        let rendered = found.render();
        assert!(rendered.contains("counterexample trace"));
        assert!(rendered.contains("=> ["));
    }

    #[test]
    fn max_states_truncates() {
        let exploration = explore_scheme(
            SchemeId::Rt(3),
            ModelConfig::default(),
            None,
            ExploreOptions {
                stop_on_violation: false,
                max_states: 10,
            },
        );
        assert!(exploration.truncated);
        assert!(!exploration.is_clean());
        assert_eq!(exploration.states, 10);
    }
}
