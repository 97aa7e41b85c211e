//! Compiled probe plans: the plan IR and its compiler.
//!
//! The two passes of Online Yannakakis (see [`crate::online`]) turn on
//! facts that depend only on the PMTD and the view schemas: which edges
//! are SS / ST / TT, which nodes survive into the top-down pass, where the
//! link variables sit in each schema, what every join's output schema is.
//! [`OnlineYannakakis::compile`] resolves all of it once — per (PMTD node,
//! access pattern) — into a [`CompiledPlan`]: a linear program of
//! bottom-up, root and top-down steps over pre-resolved column positions.
//! Every T-view — an access-free bag's included — is an input the caller
//! supplies per request, so a plan holds no database content and no delta
//! can leave it stale: it is compiled once and never recompiled.
//!
//! This module holds the IR, the compiler and the per-request input
//! validation; the step program is executed by [`crate::columnar`], the
//! single engine. The equivalence proptest in `crates/yannakakis/tests`
//! holds every plan's answers to the naive evaluator.

use cqap_common::{CqapError, Result, VarSet};
use cqap_decomp::ViewKind;
use cqap_query::AccessRequest;
use cqap_relation::{is_identity, Schema};

use crate::online::{OnlineYannakakis, SViewProbe};

/// Positions and output schema of a probe-join `left ⋈ view(node)` keyed
/// on the link variables, with matches additionally checked on the other
/// shared variables.
#[derive(Clone, Debug)]
pub(crate) struct ProbeJoin {
    /// Link-variable positions in the left schema (the probe key).
    pub(crate) key_positions: Vec<usize>,
    /// Positions of the non-link shared variables in the left schema.
    pub(crate) left_extra: Vec<usize>,
    /// The same variables' positions in the view schema.
    pub(crate) rel_extra: Vec<usize>,
    /// View positions of the columns appended to the output.
    pub(crate) appended: Vec<usize>,
    /// Arity of the probed view (the width of columnar probe results).
    pub(crate) rel_arity: usize,
    /// Schema of the join output (`left` columns, then appended columns).
    pub(crate) out_schema: Schema,
}

/// Positions and output schema of a hash join `left ⋈ rel` on all shared
/// variables (the T-view joins of the root and top-down steps).
#[derive(Clone, Debug)]
pub(crate) struct HashJoin {
    /// Shared-variable positions in the left schema.
    pub(crate) probe_key: Vec<usize>,
    /// Shared-variable positions in the build (T-view) schema.
    pub(crate) build_key: Vec<usize>,
    /// Build-side positions of the columns appended to the output.
    pub(crate) appended: Vec<usize>,
    /// Schema of the join output.
    pub(crate) out_schema: Schema,
}

/// A deduplicating projection with pre-resolved positions.
#[derive(Clone, Debug)]
pub(crate) struct Project {
    pub(crate) positions: Vec<usize>,
    pub(crate) schema: Schema,
}

/// One bottom-up semijoin-reduce action.
#[derive(Clone, Debug)]
pub(crate) enum BottomUpStep {
    /// ST-edge: keep only parent T-view tuples whose link projection hits
    /// the child S-view (one backend `contains` per distinct key).
    ProbeSemi {
        child: usize,
        parent: usize,
        key_positions: Vec<usize>,
    },
    /// TT-edge: ordinary hash semijoin of the parent by the child.
    HashSemi {
        child: usize,
        parent: usize,
        child_key: Vec<usize>,
        parent_key: Vec<usize>,
    },
    /// A TT-child that stays in the tree is projected to its head
    /// variables for the top-down pass.
    ProjectChild { node: usize, project: Project },
}

/// The root reduction.
#[derive(Clone, Debug)]
pub(crate) enum RootStep {
    /// S root: the fused semijoin+join probe of the request against the
    /// root view (a request tuple with no match simply joins to nothing,
    /// so the paper's separate semijoin pass is folded into the join).
    Probe { node: usize, join: ProbeJoin },
    /// T root: project the reduced root view to its head variables and
    /// join the request with it.
    Join {
        node: usize,
        project: Project,
        join: HashJoin,
    },
}

/// One top-down join action.
#[derive(Clone, Debug)]
pub(crate) enum TopDownStep {
    /// Join the accumulator with a kept S-view through the backend.
    Probe { node: usize, join: ProbeJoin },
    /// Join the accumulator with a kept (projected) T-view.
    Join { node: usize, join: HashJoin },
}

/// An Online-Yannakakis execution compiled for one PMTD, one access
/// pattern and one fixed set of view schemas.
///
/// Built once per plan at index-construction time via
/// [`OnlineYannakakis::compile`]; executed per request via
/// [`CompiledPlan::answer_from_columns`] against any [`SViewProbe`] backend whose
/// view schemas match the compile-time ones (the in-memory and disk
/// backends spill the *same* preprocessing output, so one compiled plan
/// serves both).
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    pub(crate) access: VarSet,
    pub(crate) num_nodes: usize,
    pub(crate) materialized: Vec<bool>,
    /// Expected schema per non-materialized node (the compile-time T-view
    /// column order every per-request run must arrive in).
    pub(crate) t_schema: Vec<Option<Schema>>,
    /// `(node, schema)` of every S-view the plan probes, validated against
    /// the backend per request.
    pub(crate) s_views: Vec<(usize, Schema)>,
    pub(crate) bottom_up: Vec<BottomUpStep>,
    pub(crate) root: RootStep,
    pub(crate) top_down: Vec<TopDownStep>,
    /// Final projection onto the head; `None` when it is the identity.
    pub(crate) final_project: Option<Project>,
    /// Schema of the accumulator after the last step (the output schema
    /// when `final_project` is `None`).
    pub(crate) final_schema: Schema,
}

fn compile_probe_join(left: &Schema, rel: &Schema, link: VarSet) -> Result<ProbeJoin> {
    let out_schema = left.join(rel);
    let key_positions = left.positions_of_set(link)?;
    let shared = left.varset().intersect(rel.varset());
    let extra = shared.difference(link);
    let left_extra = left.positions_of_set(extra)?;
    let rel_extra = rel.positions_of_set(extra)?;
    let appended = out_schema.vars()[left.arity()..]
        .iter()
        .map(|&v| rel.position(v).expect("appended var"))
        .collect();
    Ok(ProbeJoin {
        key_positions,
        left_extra,
        rel_extra,
        appended,
        rel_arity: rel.arity(),
        out_schema,
    })
}

fn compile_hash_join(left: &Schema, rel: &Schema) -> Result<HashJoin> {
    let shared = left.varset().intersect(rel.varset());
    let out_schema = left.join(rel);
    let probe_key = left.positions_of_set(shared)?;
    let build_key = rel.positions_of_set(shared)?;
    let appended = out_schema.vars()[left.arity()..]
        .iter()
        .map(|&v| rel.position(v).expect("appended var"))
        .collect();
    Ok(HashJoin {
        probe_key,
        build_key,
        appended,
        out_schema,
    })
}

fn compile_project(from: &Schema, keep: VarSet) -> Result<Project> {
    let keep = keep.intersect(from.varset());
    Ok(Project {
        positions: from.positions_of_set(keep)?,
        schema: Schema::of(keep.iter()),
    })
}

impl OnlineYannakakis {
    /// Compiles this evaluator's PMTD into a [`CompiledPlan`] against the
    /// backend's S-view schemas and the supplied per-node T-view schemas
    /// (the column orders the online driver will deliver — for the
    /// framework driver these are fixed per CQAP and derived once at
    /// build time).
    ///
    /// # Errors
    /// Fails if a probed S-view is missing from the backend, a
    /// non-materialized node has no schema in `t_schemas`, or a schema
    /// does not cover its link variables.
    pub fn compile<V: SViewProbe>(
        &self,
        views: &V,
        t_schemas: &[(usize, Schema)],
    ) -> Result<CompiledPlan> {
        let pmtd = self.pmtd();
        let td = pmtd.td();
        let head = pmtd.head();
        let num_nodes = td.num_nodes();

        let materialized: Vec<bool> = (0..num_nodes).map(|t| pmtd.is_materialized(t)).collect();
        let mut slot_schema: Vec<Option<Schema>> = vec![None; num_nodes];
        for (node, schema) in t_schemas {
            if *node >= num_nodes || materialized[*node] {
                return Err(CqapError::InvalidPmtd(format!(
                    "node {node} is materialized; its content belongs to preprocessing"
                )));
            }
            let expected = pmtd.view_schema(*node);
            if schema.varset() != expected {
                return Err(CqapError::SchemaMismatch {
                    expected: format!("ν({node}) = {expected}"),
                    found: format!("{schema}"),
                });
            }
            slot_schema[*node] = Some(schema.clone());
        }
        for t in 0..num_nodes {
            if !materialized[t] && slot_schema[t].is_none() {
                return Err(CqapError::InvalidPmtd(format!(
                    "missing T-view schema for node {t}"
                )));
            }
        }
        let t_schema = slot_schema.clone();

        let mut s_views: Vec<(usize, Schema)> = Vec::new();
        let mut require_s_view = |node: usize| -> Result<Schema> {
            let schema = views.schema(node).ok_or_else(|| {
                CqapError::InvalidPmtd(format!("S-view {node} was not preprocessed"))
            })?;
            if !s_views.iter().any(|(n, _)| *n == node) {
                s_views.push((node, schema.clone()));
            }
            Ok(schema.clone())
        };

        // Bottom-up pass over the edges, recording position-resolved steps
        // instead of executing them.
        let mut bottom_up = Vec::new();
        let mut kept = vec![true; num_nodes];
        for t in td.bottom_up_order() {
            let Some(p) = td.parent(t) else { continue };
            // A child joins top-down only for the head variables its
            // parent's view lacks.
            let child_head = pmtd.view_schema(t).intersect(head);
            kept[t] = !child_head.is_subset(pmtd.view_schema(p));
            match (pmtd.view(t).kind, pmtd.view(p).kind) {
                // Preprocessing reduced the child into its parent.
                (ViewKind::S, ViewKind::S) => {}
                (ViewKind::S, ViewKind::T) => {
                    require_s_view(t)?;
                    let parent_schema = slot_schema[p].as_ref().expect("T slot schema");
                    bottom_up.push(BottomUpStep::ProbeSemi {
                        child: t,
                        parent: p,
                        key_positions: parent_schema.positions_of_set(self.link(t))?,
                    });
                }
                (ViewKind::T, ViewKind::T) => {
                    let child_schema = slot_schema[t].as_ref().expect("T slot schema");
                    let parent_schema = slot_schema[p].as_ref().expect("T slot schema");
                    let shared = child_schema.varset().intersect(parent_schema.varset());
                    bottom_up.push(BottomUpStep::HashSemi {
                        child: t,
                        parent: p,
                        child_key: child_schema.positions_of_set(shared)?,
                        parent_key: parent_schema.positions_of_set(shared)?,
                    });
                    if kept[t] {
                        let project = compile_project(child_schema, child_head)?;
                        slot_schema[t] = Some(project.schema.clone());
                        bottom_up.push(BottomUpStep::ProjectChild { node: t, project });
                    }
                }
                (ViewKind::T, ViewKind::S) => {
                    unreachable!("materialization sets are subtree-closed")
                }
            }
        }

        // Root reduction, then the top-down joins over the kept nodes.
        let access = pmtd.access();
        let mut acc_schema = Schema::of(access.iter());
        let root_node = td.root();
        let root = match pmtd.view(root_node).kind {
            ViewKind::S => {
                let s_schema = require_s_view(root_node)?;
                let join = compile_probe_join(&acc_schema, &s_schema, self.link(root_node))?;
                acc_schema = join.out_schema.clone();
                RootStep::Probe {
                    node: root_node,
                    join,
                }
            }
            ViewKind::T => {
                let root_schema = slot_schema[root_node].as_ref().expect("T slot schema");
                let project =
                    compile_project(root_schema, pmtd.view_schema(root_node).intersect(head))?;
                let join = compile_hash_join(&acc_schema, &project.schema)?;
                acc_schema = join.out_schema.clone();
                RootStep::Join {
                    node: root_node,
                    project,
                    join,
                }
            }
        };
        kept[root_node] = false;

        let mut top_down = Vec::new();
        for t in td.top_down_order() {
            if !kept[t] {
                continue;
            }
            match pmtd.view(t).kind {
                ViewKind::S => {
                    let s_schema = require_s_view(t)?;
                    let join = compile_probe_join(&acc_schema, &s_schema, self.link(t))?;
                    acc_schema = join.out_schema.clone();
                    top_down.push(TopDownStep::Probe { node: t, join });
                }
                ViewKind::T => {
                    let rel_schema = slot_schema[t].as_ref().expect("T slot schema");
                    let join = compile_hash_join(&acc_schema, rel_schema)?;
                    acc_schema = join.out_schema.clone();
                    top_down.push(TopDownStep::Join { node: t, join });
                }
            }
        }

        let final_project = {
            let project = compile_project(&acc_schema, head)?;
            if is_identity(&project.positions, acc_schema.arity()) {
                None
            } else {
                Some(project)
            }
        };
        let final_schema = match &final_project {
            Some(p) => p.schema.clone(),
            None => acc_schema,
        };

        Ok(CompiledPlan {
            access,
            num_nodes,
            materialized,
            t_schema,
            s_views,
            bottom_up,
            root,
            top_down,
            final_project,
            final_schema,
        })
    }
}

impl CompiledPlan {
    /// The access pattern this plan answers.
    pub fn access(&self) -> VarSet {
        self.access
    }

    /// The schema of the answers this plan produces.
    pub fn output_schema(&self) -> &Schema {
        &self.final_schema
    }

    /// Rejects a request whose access pattern differs from the compiled
    /// one.
    pub(crate) fn check_access(&self, request: &AccessRequest) -> Result<()> {
        if request.access() != self.access {
            return Err(CqapError::AccessPatternMismatch {
                expected_arity: self.access.len(),
                found_arity: request.access().len(),
            });
        }
        Ok(())
    }

    /// The backend must expose exactly the views this plan was compiled
    /// against (a different backend spilled from the same preprocessing
    /// output passes by construction).
    pub(crate) fn check_backend<V: SViewProbe>(&self, views: &V) -> Result<()> {
        for (node, expected) in &self.s_views {
            match views.schema(*node) {
                None => {
                    return Err(CqapError::InvalidPmtd(format!(
                        "S-view {node} was not preprocessed"
                    )))
                }
                Some(schema) if schema != expected => {
                    return Err(CqapError::SchemaMismatch {
                        expected: format!("{expected}"),
                        found: format!("{schema}"),
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{ColumnRun, ColumnarScratch};
    use crate::naive::{full_join, naive_answer};
    use crate::online::PreprocessedViews;
    use cqap_common::Tuple;
    use cqap_decomp::families as pmtd_families;
    use cqap_decomp::Pmtd;
    use cqap_query::workload::Graph;
    use cqap_relation::{Database, Relation};

    fn views_for(
        pmtd: &Pmtd,
        cqap: &cqap_query::Cqap,
        db: &Database,
    ) -> (PreprocessedViews, Vec<(usize, Relation)>) {
        let full = full_join(cqap, db).unwrap();
        let oy = OnlineYannakakis::new(pmtd.clone());
        let mut s_views = Vec::new();
        let mut t_views = Vec::new();
        for t in 0..pmtd.td().num_nodes() {
            let rel = full.project_onto(pmtd.view_schema(t)).unwrap();
            if pmtd.is_materialized(t) {
                s_views.push((t, rel));
            } else {
                t_views.push((t, rel));
            }
        }
        (oy.preprocess(&s_views).unwrap(), t_views)
    }

    fn t_schemas(t_views: &[(usize, Relation)]) -> Vec<(usize, Schema)> {
        t_views
            .iter()
            .map(|(n, r)| (*n, r.schema().clone()))
            .collect()
    }

    /// The T-views as column runs in their own column order — the order
    /// `t_schemas` compiles the plan with.
    fn columns(t_views: &[(usize, Relation)]) -> Vec<(usize, ColumnRun)> {
        t_views
            .iter()
            .map(|(n, rel)| {
                let mut run = ColumnRun::new();
                run.reset(rel.schema().arity());
                run.extend_from_tuples(rel.tuples());
                (*n, run)
            })
            .collect()
    }

    fn refs(cols: &[(usize, ColumnRun)]) -> impl Iterator<Item = (usize, &ColumnRun)> {
        cols.iter().map(|(n, run)| (*n, run))
    }

    #[test]
    fn compiled_matches_naive_on_every_fig1_pmtd() {
        let (cqap, pmtds) = pmtd_families::pmtds_3reach_fig1().unwrap();
        let g = Graph::random(40, 160, 7);
        let db = g.as_path_database(3);
        let mut col = ColumnarScratch::new();
        for pmtd in &pmtds {
            let oy = OnlineYannakakis::new(pmtd.clone());
            let (pre, t_views) = views_for(pmtd, &cqap, &db);
            let plan = oy.compile(&pre, &t_schemas(&t_views)).unwrap();
            let cols = columns(&t_views);
            for (a, b) in [(0u64, 1u64), (3, 7), (12, 4), (1, 1)] {
                let req = AccessRequest::single(cqap.access(), &[a, b]).unwrap();
                let compiled = plan.answer_from_columns(&pre, refs(&cols), &req, &mut col).unwrap();
                let naive = naive_answer(&cqap, &db, &req).unwrap();
                assert_eq!(compiled, naive, "{} on ({a},{b})", pmtd.summary());
            }
        }
    }

    #[test]
    fn compiled_validation_rejects_bad_inputs() {
        let (cqap, pmtds) = pmtd_families::pmtds_3reach_fig1().unwrap();
        let middle = &pmtds[1]; // (T134, S13)
        let g = Graph::random(20, 60, 43);
        let db = g.as_path_database(3);
        let oy = OnlineYannakakis::new(middle.clone());
        let (pre, t_views) = views_for(middle, &cqap, &db);
        let plan = oy.compile(&pre, &t_schemas(&t_views)).unwrap();
        let cols = columns(&t_views);
        let mut col = ColumnarScratch::new();

        let req = AccessRequest::single(cqap.access(), &[0, 1]).unwrap();
        assert!(plan.answer_from_columns(&pre, refs(&cols), &req, &mut col).is_ok());
        // Missing T-view.
        assert!(plan.answer_from_columns(&pre, [], &req, &mut col).is_err());
        // Wrong access pattern.
        let bad_req = AccessRequest::single(cqap_common::vars![1, 2], &[0, 1]).unwrap();
        assert!(plan.answer_from_columns(&pre, refs(&cols), &bad_req, &mut col).is_err());
        // Supplying content for a materialized node.
        let mut run = ColumnRun::new();
        run.reset(2);
        assert!(plan.answer_from_columns(&pre, [(1, &run)], &req, &mut col).is_err());
        // A T-view of the wrong width.
        assert!(plan.answer_from_columns(&pre, [(0, &run)], &req, &mut col).is_err());
        // A compile-time T-view schema over the wrong variables.
        assert!(oy.compile(&pre, &[(0, Schema::of([0, 2]))]).is_err());
    }

    #[test]
    fn empty_access_pattern_plan() {
        let q = cqap_query::families::triangle_edge();
        let single = cqap_decomp::TreeDecomposition::single(cqap_common::vars![1, 2, 3]);
        let pmtd = Pmtd::for_cqap(single, [0], &q).unwrap();
        let mut db = Database::new();
        db.add_relation(Relation::binary(
            "R",
            0,
            1,
            [(1, 2), (2, 3), (3, 1), (3, 4)],
        ))
        .unwrap();
        let oy = OnlineYannakakis::new(pmtd.clone());
        let (pre, t_views) = views_for(&pmtd, &q, &db);
        assert!(t_views.is_empty());
        let plan = oy.compile(&pre, &[]).unwrap();
        let mut col = ColumnarScratch::new();
        let req = AccessRequest::new(VarSet::EMPTY, vec![Tuple::empty()]).unwrap();
        let ans = plan.answer_from_columns(&pre, [], &req, &mut col).unwrap();
        assert_eq!(ans, naive_answer(&q, &db, &req).unwrap());
        assert_eq!(ans.len(), 3);
        assert!(ans.contains(&Tuple::pair(1, 3)));
        // The empty request is the "false" binding: no answers.
        let empty = AccessRequest::new(VarSet::EMPTY, vec![]).unwrap();
        assert!(plan
            .answer_from_columns(&pre, [], &empty, &mut col)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn warm_probe_only_plan_performs_zero_dedup_inserts() {
        // The fully-materialized Figure 1 PMTD (S14): the plan is a pure
        // probe — after a warm-up request, answering must not touch the
        // relation-level dedup machinery at all, and must never box a
        // tuple: rows live in column runs until the final (inline-width)
        // head projection.
        let (cqap, pmtds) = pmtd_families::pmtds_3reach_fig1().unwrap();
        let single = &pmtds[2];
        let g = Graph::random(60, 300, 41);
        let db = g.as_path_database(3);
        let oy = OnlineYannakakis::new(single.clone());
        let (pre, t_views) = views_for(single, &cqap, &db);
        assert!(t_views.is_empty());
        assert!(pre.stored_values() > 0);
        let plan = oy.compile(&pre, &[]).unwrap();
        let mut col = ColumnarScratch::new();

        let warmup = AccessRequest::single(cqap.access(), &[0, 1]).unwrap();
        plan.answer_from_columns(&pre, [], &warmup, &mut col).unwrap();

        // Expected answers computed up front: the naive oracle (and
        // relation equality itself) uses the dedup machinery, so it must
        // stay outside the counted window.
        let pairs = [(0u64, 1u64), (5, 9), (17, 3), (2, 2)];
        let requests: Vec<AccessRequest> = pairs
            .iter()
            .map(|&(a, b)| AccessRequest::single(cqap.access(), &[a, b]).unwrap())
            .collect();
        let expected: Vec<Relation> = requests
            .iter()
            .map(|req| naive_answer(&cqap, &db, req).unwrap())
            .collect();

        let dedup_before = cqap_relation::instrument::dedup_inserts();
        let boxes_before = cqap_common::tuple::instrument::heap_boxings();
        let answers: Vec<Relation> = requests
            .iter()
            .map(|req| plan.answer_from_columns(&pre, [], req, &mut col).unwrap())
            .collect();
        assert_eq!(
            cqap_relation::instrument::dedup_inserts(),
            dedup_before,
            "warm probe-only requests must perform zero relation-level dedup inserts"
        );
        assert_eq!(
            cqap_common::tuple::instrument::heap_boxings(),
            boxes_before,
            "warm probe-only requests must perform zero tuple heap boxings"
        );
        assert_eq!(answers, expected);
    }
}
