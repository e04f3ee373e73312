//! Lowering: a physical plan turned, once, into the [`Program`] every run of
//! it executes.
//!
//! A program is the plan's pipelines laid out flat ([`Pipe`]): each holds its
//! operators as nodes, the breaker's input first and every node's inputs in
//! plan order, so its sources too; a pipeline's pushed source names a
//! breaker ([`Breaker`]), whose inputs are pipelines of their own. Every
//! operator has a fixed *stage* ([`Stage`]): its `EXPLAIN ANALYZE` label,
//! its output width, and what it evaluates ([`Spec`]). Labels are kept
//! unrendered ([`Label`]) and rendered together, once per program, when a
//! run that collects stats first reads one ([`Program::label`]).
//! A stage whose expressions hold a parameter marker is a *site*: a run of a
//! template binds its values there, into copies of those stages' specs only
//! ([`Specs::bind`]); every other stage is read from the program as it is.
//!
//! The program names the base tables it reads, each a *table slot*
//! ([`TableSlot`]): a run binds every slot — the table's rows, the map of
//! the index it looks rows up in, its derived-index slot — under one
//! catalog read ([`Program::bind`]), so a program is good for any number of
//! runs across writes to its tables.
//!
//! The program is immutable and shared: a cached plan holds one, and
//! concurrent runs of it each keep their own state — hash tables, held rows,
//! shared slots, step scratch, row counters — in the driver
//! ([`super::PipeRun`]), never here.

use std::sync::{Arc, OnceLock};

use crate::catalog::{Catalog, DerivedIndexes};
use crate::error::{EngineError, Result};
use crate::explain::Label;
use crate::expr::{bind_params, PhysExpr};
use crate::plan::{IndexRef, JoinAlgo, PhysPlan};
use crate::value::{Row, Value};

use super::{aggregate, join, scan, sort};

/// A plan lowered into its pipelines and breakers, ready to run any number
/// of times, from any number of threads at once.
pub(crate) struct Program {
    stages: Vec<Stage>,
    pub(super) pipes: Vec<Pipe>,
    pub(super) breakers: Vec<Breaker>,
    /// The pipeline into the statement result.
    pub(super) root: usize,
    /// The stages that hold a parameter marker, each with the highest slot
    /// it reads.
    sites: Vec<(usize, usize)>,
    /// Hash joins that probe a base-table scan through its derived index and
    /// row by row ([`join::node_mode`]), a shared subplan's once.
    probes: (u64, u64),
    /// Every label a run's stats may print: the stages' and the reused
    /// shared references'.
    labels: Vec<Label>,
    /// `labels`, rendered by the first reader.
    rendered: OnceLock<Vec<String>>,
    /// The base tables its scans read, by slot.
    tables: Vec<TableSlot>,
}

/// A base table a program reads, as named in the catalog, with the index it
/// looks rows up in and whether a hash join finds its rows through its
/// derived indexes: what one slot of a run binds ([`Bound`]).
struct TableSlot {
    table: String,
    index: Option<String>,
    derived: bool,
}

/// One table slot as a run reads it, taken under the catalog read that
/// bound every slot of the run: so a scan, an index lookup and a key filter
/// of one table all read one snapshot of it.
pub(crate) struct Bound {
    pub(super) rows: Arc<Vec<Row>>,
    pub(super) index: Option<IndexRef>,
    pub(super) derived: Option<DerivedIndexes>,
}

/// Where a source's rows come from.
pub(super) enum Source {
    /// A table slot the run binds.
    Table(usize),
    /// Rows the plan holds: a `sys.*` table, materialized when it was
    /// planned (such plans are never cached).
    Held(Arc<Vec<Row>>),
}

/// One operator of the program.
pub(crate) struct Stage {
    /// Its label's index ([`Program::label`]).
    pub(crate) label: usize,
    /// Columns of every row it hands on.
    pub(crate) width: usize,
    /// The stages whose rows it reads where it expects a width of them, and
    /// that width: a pass-through operator's input, a join's right or inner
    /// side, a `UNION ALL`'s arms, a shared slot's fill.
    pub(crate) reads: Vec<(usize, usize)>,
    pub(super) spec: Spec,
}

/// What an operator evaluates: the part of a stage a run binds its
/// parameter values into.
#[derive(Clone)]
pub(super) enum Spec {
    /// A source, `UNION ALL`, `DISTINCT` or shared slot: nothing.
    None,
    Stage(scan::StageSpec),
    IndexScan(scan::IndexSpec),
    Probe(join::ProbeSpec),
    SortMerge(join::MergeSpec),
    NestedLoop(join::LoopSpec),
    IndexJoin(join::IndexSpec),
    Aggregate(Arc<aggregate::GroupSpec>),
    Window(sort::WindowSpec),
    Sort(sort::SortKeys),
    Limit {
        limit: Option<usize>,
        offset: usize,
    },
}

impl Spec {
    /// Call `f` on each expression the operator evaluates.
    fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut PhysExpr)) {
        match self {
            Spec::None | Spec::Limit { .. } => {}
            Spec::Stage(spec) => spec.for_each_expr_mut(f),
            Spec::IndexScan(spec) => spec.for_each_expr_mut(f),
            Spec::Probe(spec) => spec.for_each_expr_mut(f),
            Spec::SortMerge(spec) => spec.for_each_expr_mut(f),
            Spec::NestedLoop(spec) => spec.for_each_expr_mut(f),
            Spec::IndexJoin(spec) => spec.for_each_expr_mut(f),
            Spec::Aggregate(spec) => Arc::make_mut(spec).for_each_expr_mut(f),
            Spec::Window(spec) => spec.for_each_expr_mut(f),
            Spec::Sort(keys) => Arc::make_mut(keys).iter_mut().for_each(|(e, _)| f(e)),
        }
    }
}

/// A pipeline: its operators as nodes, the breaker's input first and each
/// node's inputs in plan order.
pub(super) struct Pipe {
    pub(super) nodes: Vec<PipeNode>,
    /// Columns of the rows it hands its breaker.
    pub(super) width: usize,
}

/// One operator of a pipeline; its inputs are the nodes it is the parent
/// of, in plan order.
pub(super) struct PipeNode {
    pub(super) stage: usize,
    pub(super) parent: Option<usize>,
    pub(super) kind: Kind,
}

/// What a pipeline node is.
pub(super) enum Kind {
    /// A source: a table's rows (a key-filtering probe above it may read
    /// only some of them).
    Rows(Source),
    /// A source: a shared slot.
    Shared(SharedRef),
    /// A source: a breaker that hands its rows on itself.
    Pushed(usize),
    /// Filter/Project.
    Stage,
    /// A hash-join probe, whose build side runs first.
    Probe(Input),
    /// A nested-loop join's outer side, whose inner side runs first.
    NestedLoop(Input),
    /// An index nested-loop join, with the stage of its index scan.
    IndexJoin(usize),
    /// `UNION ALL`: its arms' rows pass it unchanged.
    Union,
    /// An operator that cannot run: the error it raises.
    Fail(&'static str),
}

/// A reference to a shared subplan: the slot's id, the pipeline that fills
/// it (one per id, whichever reference runs first), and the label index of
/// a reference that reads it filled.
pub(super) struct SharedRef {
    pub(super) id: usize,
    pub(super) fill: usize,
    pub(super) reused: usize,
}

/// An input an operator holds all of.
pub(super) enum Input {
    /// A table's rows, handed over as they are held; with its stage.
    Rows(Source, usize),
    /// A shared slot's rows; with its stage.
    Shared(SharedRef, usize),
    /// Any other input: its pipeline, collected.
    Collect(usize),
}

/// An operator that hands its rows on itself: a pipeline's pushed source.
pub(super) struct Breaker {
    pub(super) stage: usize,
    pub(super) kind: BreakerKind,
}

pub(super) enum BreakerKind {
    IndexScan,
    OneRow,
    SortMerge(Input, Input),
    Aggregate(usize),
    Window(Input),
    Sort(Input),
    Limit(usize),
    /// `LIMIT` over a `Sort`: the sort's stage, run as top-k, and its input.
    TopK(usize, Input),
    Distinct(usize),
}

impl Program {
    /// Lower `plan`. Lowering never fails: an operator that cannot run
    /// raises its error when a run reaches it.
    pub(crate) fn lower(plan: &PhysPlan) -> Program {
        let mut lowering = Lowering::default();
        let root = lowering.pipe(plan);
        let Lowering {
            stages,
            pipes,
            breakers,
            sites,
            probes,
            labels,
            tables,
            ..
        } = lowering;
        Program {
            stages,
            pipes,
            breakers,
            root,
            sites,
            probes,
            labels,
            rendered: OnceLock::new(),
            tables,
        }
    }

    /// Bind every table slot from `catalog`, under the caller's read of it:
    /// the table's rows, the map of the slot's index and, for a slot a hash
    /// join key-filters, the table's derived-index slot. Fails when a table
    /// or an index is gone.
    pub(crate) fn bind(&self, catalog: &Catalog) -> Result<Vec<Bound>> {
        let bind = |slot: &TableSlot| {
            let table = catalog.get(&slot.table)?;
            let index = match &slot.index {
                Some(name) => Some(table.index(name).ok_or_else(|| {
                    let table = &slot.table;
                    EngineError::plan(format!("no index named '{name}' on table '{table}'"))
                })?),
                None => None,
            };
            Ok(Bound {
                rows: Arc::clone(&table.rows),
                index,
                derived: slot.derived.then(|| table.derived.clone()),
            })
        };
        self.tables.iter().map(bind).collect()
    }

    /// Label `at`, rendering every label of the program on first use.
    pub(crate) fn label(&self, at: usize) -> &str {
        let rendered = self
            .rendered
            .get_or_init(|| self.labels.iter().map(Label::to_string).collect());
        &rendered[at]
    }

    /// The label of `stage`.
    pub(crate) fn stage_label(&self, stage: usize) -> &str {
        self.label(self.stages[stage].label)
    }

    /// Its stages, by fixed index.
    pub(crate) fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The stages that hold a parameter marker, each with the highest slot
    /// it reads.
    pub(crate) fn sites(&self) -> &[(usize, usize)] {
        &self.sites
    }

    /// `(index, row)` keyset probes one run makes.
    pub(crate) fn probes(&self) -> (u64, u64) {
        self.probes
    }

    /// The stage of an input's rows.
    pub(super) fn input_stage(&self, input: &Input) -> usize {
        input_stage(&self.pipes, input)
    }
}

fn input_stage(pipes: &[Pipe], input: &Input) -> usize {
    match input {
        Input::Rows(_, stage) | Input::Shared(_, stage) => *stage,
        Input::Collect(pipe) => pipes[*pipe].nodes[0].stage,
    }
}

/// What a run reads of a program: its specs, with the run's parameter values
/// bound in at the sites, and its tables.
pub(crate) struct Specs {
    pub(super) program: Arc<Program>,
    bound: Vec<(usize, Spec)>,
    /// The run's table slots ([`Program::bind`]).
    pub(super) tables: Vec<Bound>,
}

impl Specs {
    /// Bind `params` at `program`'s sites: a copy of each site's spec, the
    /// rest read from the program; `tables` are the run's table slots.
    pub(crate) fn bind(
        program: &Arc<Program>,
        params: &[Value],
        tables: Vec<Bound>,
    ) -> Result<Arc<Specs>> {
        let mut unbound = None;
        let bound = program.sites.iter().map(|&(stage, _)| {
            let mut spec = program.stages[stage].spec.clone();
            spec.for_each_expr_mut(&mut |e| bind_params(e, params, &mut unbound));
            (stage, spec)
        });
        let bound = bound.collect();
        if let Some(i) = unbound {
            return Err(EngineError::Parameter(format!(
                "parameter ?{i} referenced but only {} bound",
                params.len()
            )));
        }
        Ok(Arc::new(Specs {
            program: Arc::clone(program),
            bound,
            tables,
        }))
    }

    /// The rows of a source.
    pub(super) fn rows(&self, source: &Source) -> Arc<Vec<Row>> {
        match source {
            Source::Table(slot) => Arc::clone(&self.tables[*slot].rows),
            Source::Held(rows) => Arc::clone(rows),
        }
    }

    pub(super) fn spec(&self, stage: usize) -> &Spec {
        match self.bound.iter().find(|(at, _)| *at == stage) {
            Some((_, spec)) => spec,
            None => &self.program.stages[stage].spec,
        }
    }
}

/// The highest parameter slot `e` reads, 0 for none.
fn highest_param(e: &PhysExpr) -> usize {
    let mut highest = match e {
        PhysExpr::Param(i) => *i,
        _ => 0,
    };
    e.for_each_child(&mut |child| highest = highest.max(highest_param(child)));
    highest
}

#[derive(Default)]
struct Lowering {
    stages: Vec<Stage>,
    pipes: Vec<Pipe>,
    breakers: Vec<Breaker>,
    sites: Vec<(usize, usize)>,
    probes: (u64, u64),
    /// The pipeline filling each shared slot, by id.
    fills: Vec<(usize, usize)>,
    labels: Vec<Label>,
    tables: Vec<TableSlot>,
}

impl Lowering {
    /// A label's index.
    fn label(&mut self, label: Label) -> usize {
        self.labels.push(label);
        self.labels.len() - 1
    }

    /// A stage for `plan`, labelled `label`.
    fn labelled(&mut self, plan: &PhysPlan, label: Label, mut spec: Spec) -> usize {
        let at = self.stages.len();
        let mut highest = 0;
        spec.for_each_expr_mut(&mut |e| highest = highest.max(highest_param(e)));
        if highest > 0 {
            self.sites.push((at, highest));
        }
        match join::node_mode(plan) {
            Some(true) => self.probes.0 += 1,
            Some(false) => self.probes.1 += 1,
            None => {}
        }
        let label = self.label(label);
        self.stages.push(Stage {
            label,
            width: plan.width(),
            reads: Vec::new(),
            spec,
        });
        at
    }

    fn stage(&mut self, plan: &PhysPlan, spec: Spec) -> usize {
        self.labelled(plan, Label::of(plan), spec)
    }

    /// The slot of `table` read through `index`, added on first use; marked
    /// for its derived indexes when a hash join key-filters it.
    fn slot(&mut self, table: &str, index: Option<&str>, derived: bool) -> usize {
        let same = |slot: &TableSlot| {
            let same_index = match (slot.index.as_deref(), index) {
                (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
                (a, b) => a.is_none() && b.is_none(),
            };
            slot.table.eq_ignore_ascii_case(table) && same_index
        };
        let at = match self.tables.iter().position(same) {
            Some(at) => at,
            None => {
                self.tables.push(TableSlot {
                    table: table.to_ascii_lowercase(),
                    index: index.map(str::to_string),
                    derived: false,
                });
                self.tables.len() - 1
            }
        };
        self.tables[at].derived |= derived;
        at
    }

    /// The source of a scan's rows.
    fn source(&mut self, plan: &PhysPlan) -> Source {
        match plan {
            PhysPlan::Scan { table, .. } => Source::Table(self.slot(table, None, false)),
            PhysPlan::VirtualScan { rows, .. } => Source::Held(Arc::clone(rows)),
            _ => unreachable!("a scan"),
        }
    }

    /// Record that `stage` reads `from`'s rows at `width` columns.
    fn reads(&mut self, stage: usize, from: usize, width: usize) {
        self.stages[stage].reads.push((from, width));
    }

    /// Lower `plan`'s pipeline.
    fn pipe(&mut self, plan: &PhysPlan) -> usize {
        let mut nodes = Vec::new();
        self.node(plan, None, &mut nodes);
        self.pipes.push(Pipe {
            nodes,
            width: plan.width(),
        });
        self.pipes.len() - 1
    }

    /// Lower `plan`'s operators into `nodes` under `parent`, in the order a
    /// serial run prepares them; its stage.
    fn node(&mut self, plan: &PhysPlan, parent: Option<usize>, nodes: &mut Vec<PipeNode>) -> usize {
        let at = nodes.len();
        let push = |nodes: &mut Vec<PipeNode>, stage, kind| {
            nodes.push(PipeNode {
                stage,
                parent,
                kind,
            });
            stage
        };
        match plan {
            PhysPlan::Scan { .. } | PhysPlan::VirtualScan { .. } => {
                let stage = self.stage(plan, Spec::None);
                let source = self.source(plan);
                push(nodes, stage, Kind::Rows(source))
            }
            PhysPlan::Filter { input, .. } | PhysPlan::Project { input, .. } => {
                let stage = self.stage(plan, Spec::Stage(scan::StageSpec::of(plan)));
                push(nodes, stage, Kind::Stage);
                let from = self.node(input, Some(at), nodes);
                if let PhysPlan::Filter { .. } = plan {
                    self.reads(stage, from, plan.width());
                }
                stage
            }
            PhysPlan::HashJoin {
                algo: JoinAlgo::Hash,
                build_left,
                right_width,
                ..
            } => {
                let ((build, _), (probe, _)) = plan.join_sides().expect("a hash join");
                let spec = join::ProbeSpec::of(plan, |table| self.slot(table, None, true));
                let stage = self.stage(plan, Spec::Probe(spec));
                let built = self.input(build);
                let build_stage = self.input_stage(&built);
                push(nodes, stage, Kind::Probe(built));
                let probe_stage = self.node(probe, Some(at), nodes);
                let right = if *build_left {
                    probe_stage
                } else {
                    build_stage
                };
                self.reads(stage, right, *right_width);
                stage
            }
            PhysPlan::NestedLoopJoin {
                left,
                right,
                right_width,
                ..
            } => {
                let stage = self.stage(plan, Spec::NestedLoop(join::LoopSpec::of(plan)));
                let inner = self.input(right);
                self.reads(stage, self.input_stage(&inner), *right_width);
                push(nodes, stage, Kind::NestedLoop(inner));
                self.node(left, Some(at), nodes);
                stage
            }
            PhysPlan::IndexJoin {
                probe,
                inner,
                inner_width,
                ..
            } => {
                let stage = match join::IndexSpec::of(plan, |t, i| self.slot(t, Some(i), false)) {
                    Ok(spec) => {
                        let stage = self.stage(plan, Spec::IndexJoin(spec));
                        let scan = self.stage(inner, Spec::None);
                        self.reads(stage, scan, *inner_width);
                        push(nodes, stage, Kind::IndexJoin(scan))
                    }
                    Err(error) => {
                        let stage = self.stage(plan, Spec::None);
                        push(nodes, stage, Kind::Fail(error))
                    }
                };
                self.node(probe, Some(at), nodes);
                stage
            }
            PhysPlan::UnionAll { inputs } => {
                let stage = self.stage(plan, Spec::None);
                push(nodes, stage, Kind::Union);
                for arm in inputs {
                    let from = self.node(arm, Some(at), nodes);
                    self.reads(stage, from, plan.width());
                }
                stage
            }
            PhysPlan::Shared { .. } => {
                let (shared, stage) = self.shared(plan);
                push(nodes, stage, Kind::Shared(shared))
            }
            _ => {
                let breaker = self.breaker(plan);
                let stage = self.breakers[breaker].stage;
                push(nodes, stage, Kind::Pushed(breaker))
            }
        }
    }

    fn input_stage(&self, input: &Input) -> usize {
        input_stage(&self.pipes, input)
    }

    /// A reference to a shared subplan, and its stage.
    fn shared(&mut self, plan: &PhysPlan) -> (SharedRef, usize) {
        let PhysPlan::Shared { id, input, .. } = plan else {
            unreachable!("a shared reference");
        };
        let stage = self.stage(plan, Spec::None);
        let fill = match self.fills.iter().find(|(at, _)| at == id) {
            Some(&(_, fill)) => fill,
            None => {
                let fill = self.pipe(input);
                self.fills.push((*id, fill));
                fill
            }
        };
        let filled = self.pipes[fill].nodes[0].stage;
        self.reads(stage, filled, plan.width());
        let shared = SharedRef {
            id: *id,
            fill,
            reused: self.label(Label::reused(plan)),
        };
        (shared, stage)
    }

    /// Lower an input an operator holds all of.
    fn input(&mut self, plan: &PhysPlan) -> Input {
        match plan {
            PhysPlan::Scan { .. } | PhysPlan::VirtualScan { .. } => {
                let source = self.source(plan);
                Input::Rows(source, self.stage(plan, Spec::None))
            }
            PhysPlan::Shared { .. } => {
                let (shared, stage) = self.shared(plan);
                Input::Shared(shared, stage)
            }
            _ => Input::Collect(self.pipe(plan)),
        }
    }

    /// Lower an operator that hands its rows on itself.
    fn breaker(&mut self, plan: &PhysPlan) -> usize {
        let width = plan.width();
        let (stage, kind) = match plan {
            PhysPlan::IndexScan {
                table, index_name, ..
            } => {
                let slot = self.slot(table, Some(index_name), false);
                let spec = Spec::IndexScan(scan::IndexSpec::of(plan, slot));
                (self.stage(plan, spec), BreakerKind::IndexScan)
            }
            PhysPlan::OneRow => (self.stage(plan, Spec::None), BreakerKind::OneRow),
            PhysPlan::HashJoin {
                left,
                right,
                right_width,
                ..
            } => {
                let stage = self.stage(plan, Spec::SortMerge(join::MergeSpec::of(plan)));
                let (left, right) = (self.input(left), self.input(right));
                self.reads(stage, self.input_stage(&right), *right_width);
                (stage, BreakerKind::SortMerge(left, right))
            }
            PhysPlan::Aggregate { input, keys, aggs } => {
                let spec = aggregate::GroupSpec::new(keys, aggs);
                let stage = self.stage(plan, Spec::Aggregate(Arc::new(spec)));
                (stage, BreakerKind::Aggregate(self.pipe(input)))
            }
            PhysPlan::Window { input, .. } => {
                let stage = self.stage(plan, Spec::Window(sort::WindowSpec::of(plan)));
                let input = self.input(input);
                self.reads(stage, self.input_stage(&input), width - 1);
                (stage, BreakerKind::Window(input))
            }
            PhysPlan::Sort { input, keys } => {
                let stage = self.stage(plan, Spec::Sort(Arc::new(keys.clone())));
                let input = self.input(input);
                self.reads(stage, self.input_stage(&input), width);
                (stage, BreakerKind::Sort(input))
            }
            PhysPlan::Limit {
                input,
                limit,
                offset,
            } => {
                let spec = Spec::Limit {
                    limit: *limit,
                    offset: *offset,
                };
                let stage = self.stage(plan, spec);
                let kind = match (&**input, limit) {
                    (
                        PhysPlan::Sort {
                            input: sorted,
                            keys,
                        },
                        Some(limit),
                    ) => {
                        let label = Label::TopK {
                            keys: keys.len(),
                            k: offset.saturating_add(*limit),
                        };
                        let spec = Spec::Sort(Arc::new(keys.clone()));
                        let sort = self.labelled(input, label, spec);
                        let sorted = self.input(sorted);
                        self.reads(sort, self.input_stage(&sorted), width);
                        self.reads(stage, sort, width);
                        BreakerKind::TopK(sort, sorted)
                    }
                    _ => {
                        let pipe = self.pipe(input);
                        self.reads(stage, self.pipes[pipe].nodes[0].stage, width);
                        BreakerKind::Limit(pipe)
                    }
                };
                (stage, kind)
            }
            PhysPlan::Distinct { input } => {
                let stage = self.stage(plan, Spec::None);
                let pipe = self.pipe(input);
                self.reads(stage, self.pipes[pipe].nodes[0].stage, width);
                (stage, BreakerKind::Distinct(pipe))
            }
            _ => unreachable!("a streaming operator lowers into its pipeline"),
        };
        self.breakers.push(Breaker { stage, kind });
        self.breakers.len() - 1
    }
}

// A program is shared by every concurrent run of its plan.
#[allow(dead_code)]
fn _assert_program_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<Program>();
    assert::<Specs>();
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::ast::{BinaryOp, JoinKind};
    use crate::explain::op_label;

    fn scan(width: usize, rows: usize) -> PhysPlan {
        let row = |i: usize| {
            (0..width)
                .map(|c| Value::Int((i * width + c) as i64))
                .collect()
        };
        crate::exec::fixture::scan((0..rows).map(row).collect(), width, false)
    }

    fn eq(column: usize, e: PhysExpr) -> PhysExpr {
        PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(column)),
            op: BinaryOp::Eq,
            right: Box::new(e),
        }
    }

    /// `Project [1] ← Filter (col 0 = ?1) ← HashJoin (probe 2×3 scan, build
    /// a 1×2 scan on the right)`.
    fn template() -> PhysPlan {
        let join = PhysPlan::HashJoin {
            left: Box::new(scan(2, 3)),
            right: Box::new(scan(1, 2)),
            left_keys: vec![PhysExpr::Column(0)],
            right_keys: vec![PhysExpr::Column(0)],
            kind: JoinKind::Inner,
            right_width: 1,
            residual: None,
            algo: JoinAlgo::Hash,
            build_left: false,
            out: None,
        };
        PhysPlan::Project {
            input: Box::new(PhysPlan::Filter {
                input: Box::new(join),
                predicate: eq(0, PhysExpr::Param(1)),
            }),
            exprs: vec![PhysExpr::Column(1)],
        }
    }

    #[test]
    fn every_operator_is_one_stage_labelled_once_with_its_width() {
        let plan = template();
        let program = Program::lower(&plan);
        let mut labels = Vec::new();
        plan.for_each_node(&mut |node, _, _| labels.push((op_label(node), node.width())));
        let mut stages: Vec<_> = program
            .stages()
            .iter()
            .map(|s| (program.label(s.label).to_string(), s.width))
            .collect();
        // Lowering numbers the build side before the probe side; the set of
        // stages is the plan's nodes.
        labels.sort();
        stages.sort();
        assert_eq!(stages, labels);
        // One pipeline, streaming the probe side's scan through the join,
        // the filter and the projection; the build side is a held input.
        let root = &program.pipes[program.root];
        let kinds: Vec<_> = root
            .nodes
            .iter()
            .map(|n| match &n.kind {
                Kind::Stage => "stage",
                Kind::Probe(Input::Rows(..)) => "probe",
                Kind::Rows(_) => "rows",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["stage", "stage", "probe", "rows"]);
        let parents: Vec<_> = root.nodes.iter().map(|n| n.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(2)]);
        assert_eq!(root.width, 1);
        assert!(program.breakers.is_empty());
    }

    #[test]
    fn a_run_binds_its_values_at_the_sites_only() {
        let program = Arc::new(Program::lower(&template()));
        let filter = program.pipes[program.root].nodes[1].stage;
        assert_eq!(program.sites(), [(filter, 1)]);
        let tables = || program.bind(&crate::exec::fixture::tables()).unwrap();
        let specs = Specs::bind(&program, &[Value::Int(3)], tables()).unwrap();
        assert_eq!(specs.bound.len(), 1, "one stage copied");
        let Spec::Stage(scan::StageSpec::Filter(bound)) = specs.spec(filter) else {
            panic!("the filter's spec");
        };
        assert!(!bound.contains_param());
        let Spec::Stage(scan::StageSpec::Filter(lowered)) = &program.stages()[filter].spec else {
            panic!("the filter's spec");
        };
        assert!(lowered.contains_param(), "the program keeps its marker");
        let err = Specs::bind(&program, &[], tables())
            .err()
            .expect("an unbound slot");
        assert!(
            err.to_string()
                .contains("parameter ?1 referenced but only 0 bound"),
            "{err}"
        );
    }

    #[test]
    fn every_reference_to_a_shared_subplan_reads_one_fill_pipeline() {
        let shared = |refs| PhysPlan::Shared {
            id: 7,
            cte: Arc::from("c"),
            refs,
            input: Box::new(PhysPlan::Filter {
                input: Box::new(scan(2, 4)),
                predicate: eq(1, PhysExpr::Literal(Value::Int(3))),
            }),
        };
        let plan = PhysPlan::UnionAll {
            inputs: vec![shared(2), shared(2)],
        };
        let program = Program::lower(&plan);
        let fills: Vec<_> = program.pipes[program.root]
            .nodes
            .iter()
            .filter_map(|n| match &n.kind {
                Kind::Shared(shared) => {
                    Some((shared.id, shared.fill, program.label(shared.reused)))
                }
                _ => None,
            })
            .collect();
        assert_eq!(fills.len(), 2);
        assert_eq!(fills[0], fills[1]);
        assert_eq!(fills[0].2, "Shared cte=c (reused)");
        // The root pipeline and one fill: the second copy is not lowered.
        assert_eq!(program.pipes.len(), 2);
        assert!(program.sites().is_empty());
        assert!(crate::verify::verify_program(&program, Some(0)).is_empty());
    }

    #[test]
    fn a_declared_width_its_producer_does_not_make_is_recorded() {
        let mut plan = template();
        if let PhysPlan::Project { input, .. } = &mut plan {
            if let PhysPlan::Filter { input, .. } = &mut **input {
                if let PhysPlan::HashJoin { right_width, .. } = &mut **input {
                    *right_width = 2;
                }
            }
        }
        let program = Program::lower(&plan);
        let violations = crate::verify::verify_program(&program, None);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0]
            .message
            .contains("reads 2-column rows from stage"));
        // The join probes its base-table scan row by row: no derived slot.
        assert_eq!(program.probes(), (0, 1));
    }
}
