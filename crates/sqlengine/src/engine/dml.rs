//! DDL, DML and transaction control: everything that writes the catalog.
//!
//! Each statement mutates under the catalog write lock, logs its ops to the
//! WAL while still holding it (so WAL order equals mutation order), releases
//! the lock, and only then blocks for durability ([`Database::commit`]).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use super::{slot_count, Database, PlanVerify, Planned, StatementCtx, StatementResult};
use crate::ast::{
    qualify_bare_columns, split_conjuncts, ConflictAction, Expr, Insert, InsertSource, Query,
    Statement,
};
use crate::catalog::{Catalog, Column, InsertOutcome, ResolvedConflict, Schema, Table};
use crate::error::{EngineError, Result};
use crate::exec::index_positions;
use crate::expr::{bind_expr, ColLabel, PhysExpr, Scope};
use crate::lexer::Shape;
use crate::logical::table_scope;
use crate::plan::{PhysPlan, PlannedTable, Planner};
use crate::plan_cache::{Body, NewEntry};
use crate::sync::RwLockWriteGuard;
use crate::trace::{AttrValue, TraceScope};
use crate::value::{DataType, Row, Value};
use crate::wal::{push_insert, WalOp};

impl Database {
    /// Apply one DDL / DML / transaction-control statement. `source` is an
    /// `INSERT … SELECT`'s source plan, its tables bound, when it has one
    /// already (from the plan cache); otherwise the source is planned here.
    pub(super) fn apply(
        &self,
        sql: &str,
        stmt: &Statement,
        params: &[Value],
        source: Option<Planned>,
        ctx: &mut StatementCtx,
    ) -> Result<StatementResult> {
        match stmt {
            Statement::Query(_) | Statement::Explain { .. } => {
                unreachable!("queries and EXPLAIN run in the statement driver")
            }
            Statement::CreateTable(ct) => {
                let columns: Vec<(String, DataType)> =
                    ct.columns.iter().map(|c| (c.name.clone(), c.ty)).collect();
                let table = Table::new(ct.name.clone(), schema_of(&columns), &ct.primary_key)?;
                let mut catalog = self.write_catalog()?;
                let mut ops = Vec::new();
                if catalog.create_table(table, ct.if_not_exists)? {
                    ops.push(WalOp::CreateTable {
                        name: ct.name.clone(),
                        columns,
                        primary_key: ct.primary_key.clone(),
                    });
                }
                self.commit(catalog, ops, None, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(0))
            }
            Statement::CreateIndex(ci) => {
                let mut catalog = self.write_catalog()?;
                let table = catalog.get_mut(&ci.table)?;
                if table.has_index(&ci.name) {
                    if ci.if_not_exists {
                        return Ok(StatementResult::Affected(0));
                    }
                    return Err(EngineError::catalog(format!(
                        "index '{}' already exists",
                        ci.name
                    )));
                }
                table.create_index(&ci.name, &ci.columns, ci.unique)?;
                let ops = vec![WalOp::CreateIndex {
                    table: ci.table.clone(),
                    name: ci.name.clone(),
                    columns: ci.columns.clone(),
                    unique: ci.unique,
                }];
                self.commit(catalog, ops, None, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(0))
            }
            Statement::DropTable { name, if_exists } => {
                let mut catalog = self.write_catalog()?;
                let mut ops = Vec::new();
                let dropped = catalog.drop_table(name, *if_exists)?;
                if dropped.is_some() {
                    ops.push(WalOp::DropTable { name: name.clone() });
                }
                // No plan holds a table's rows: the table is freed here,
                // once `commit` has released the catalog lock.
                self.commit(catalog, ops, None, ctx.deadline, ctx.wal_scope())?;
                drop(dropped);
                Ok(StatementResult::Affected(0))
            }
            Statement::CreateTableAs {
                name,
                if_not_exists,
                query,
            } => {
                let (column_names, rows) = self.source_rows(sql, query, params, None, ctx)?;
                let columns: Vec<(String, DataType)> = column_names
                    .into_iter()
                    .map(|c| (c, DataType::Any))
                    .collect();
                let n = rows.len();
                // Clone the result rows for the log up front: the table takes
                // ownership of them below.
                let logged_rows = self.wal.is_some().then(|| rows.clone());
                let table = Table::new(name.clone(), schema_of(&columns), &[])?.with_rows(rows)?;
                let mut catalog = self.write_catalog()?;
                let mut ops = Vec::new();
                if catalog.create_table(table, *if_not_exists)? {
                    ops.push(WalOp::CreateTable {
                        name: name.clone(),
                        columns,
                        primary_key: Vec::new(),
                    });
                    if let Some(rows) = logged_rows.filter(|rows| !rows.is_empty()) {
                        ops.push(WalOp::Insert {
                            table: name.clone(),
                            rows,
                        });
                    }
                }
                self.commit(catalog, ops, None, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(n))
            }
            Statement::Begin => {
                let mut backup = self.txn_backup.lock();
                if backup.is_some() {
                    return Err(EngineError::exec("a transaction is already in progress"));
                }
                *backup = Some(self.catalog.read().clone());
                if let Some(wal) = &self.wal {
                    wal.begin();
                }
                Ok(StatementResult::Affected(0))
            }
            Statement::Commit => {
                let mut backup = self.txn_backup.lock();
                if backup.is_none() {
                    return Err(EngineError::exec("no transaction in progress"));
                }
                // Flush the transaction's buffered ops as one batch while
                // holding the catalog lock, so the flush serializes with any
                // concurrent writer. A plain `write()` (no version bump): the
                // catalog itself is not mutated here.
                let flush = match &self.wal {
                    Some(wal) => {
                        let catalog = self.catalog.write();
                        let scope = ctx.wal_scope();
                        wal.commit_traced(&catalog, ctx.deadline, scope.as_ref())
                    }
                    None => Ok(None),
                };
                backup.take();
                // Release the transaction guard before blocking on the group
                // flush (`wal_wait` re-reads transaction state).
                drop(backup);
                self.wal_wait(flush?, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(0))
            }
            Statement::Rollback => {
                let mut backup = self.txn_backup.lock();
                match backup.take() {
                    Some(saved) => {
                        // Restore and discard the WAL's buffered ops under one
                        // guard: nothing was written durably since BEGIN, so
                        // the durable state already equals `saved`. The
                        // transaction's tables are freed after the guard.
                        let mut catalog = self.write_catalog()?;
                        let retired = std::mem::replace(&mut *catalog, saved);
                        if let Some(wal) = &self.wal {
                            wal.rollback();
                        }
                        drop(catalog);
                        drop(retired);
                        Ok(StatementResult::Affected(0))
                    }
                    None => Err(EngineError::exec("no transaction in progress")),
                }
            }
            Statement::Insert(insert) => self.execute_insert(sql, insert, params, source, ctx),
            Statement::Delete {
                table, predicate, ..
            } => {
                let predicate = self.resolve_dml_subqueries(predicate.clone(), params, ctx)?;
                let mut catalog = self.write_catalog()?;
                let selection =
                    self.select_rows(&catalog, table, predicate.as_ref(), params, ctx)?;
                let mut idxs = Vec::new();
                selection.for_each_match(&catalog.get(table)?.rows, |i, _| {
                    idxs.push(i);
                    Ok(())
                })?;
                let t = catalog.get_mut(table)?;
                let logged_idxs = (self.wal.is_some() && !idxs.is_empty())
                    .then(|| idxs.iter().map(|&i| i as u64).collect::<Vec<u64>>());
                let before = Arc::as_ptr(&t.rows);
                let n = t.delete_rows(idxs)?;
                self.count_copy(before, t);
                let mut ops = Vec::new();
                if let Some(idxs) = logged_idxs.filter(|_| n > 0) {
                    ops.push(WalOp::Delete {
                        table: table.clone(),
                        idxs,
                    });
                }
                self.commit(catalog, ops, None, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(n))
            }
            Statement::Update {
                table,
                assignments,
                predicate,
                ..
            } => {
                let predicate = self.resolve_dml_subqueries(predicate.clone(), params, ctx)?;
                let mut catalog = self.write_catalog()?;
                let selection =
                    self.select_rows(&catalog, table, predicate.as_ref(), params, ctx)?;
                let t = catalog.get(table)?;
                let scope = table_scope(&t.name, &t.schema);
                let mut bound_assignments = Vec::with_capacity(assignments.len());
                for (col, expr) in assignments {
                    let pos = t.schema.position(col).ok_or_else(|| {
                        EngineError::plan(format!("unknown column '{col}' in UPDATE"))
                    })?;
                    bound_assignments.push((pos, bind_expr(expr, &scope, params)?));
                }
                let mut updates = Vec::new();
                selection.for_each_match(&t.rows, |i, row| {
                    let mut new_row = row.clone();
                    for (pos, e) in &bound_assignments {
                        new_row[*pos] = e.eval(row)?;
                    }
                    updates.push((i, new_row));
                    Ok(())
                })?;
                let t = catalog.get_mut(table)?;
                let before = Arc::as_ptr(&t.rows);
                let wal_on = self.wal.is_some();
                let mut ops = Vec::new();
                let mut applied = 0usize;
                let mut failure = None;
                for (i, new_row) in updates {
                    let logged = wal_on.then(|| new_row.clone());
                    if let Err(e) = t.replace_row(i, new_row) {
                        failure = Some(e);
                        break;
                    }
                    applied += 1;
                    if let Some(row) = logged {
                        ops.push(WalOp::Replace {
                            table: table.clone(),
                            idx: i as u64,
                            row,
                        });
                    }
                }
                self.count_copy(before, t);
                self.commit(catalog, ops, failure, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(applied))
            }
        }
    }

    /// Take the catalog write lock and bump the catalog version under it.
    /// The plan cache is left alone: a cached plan is checked against the
    /// catalog when it is next served.
    fn write_catalog(&self) -> Result<RwLockWriteGuard<'_, Catalog>> {
        // Degraded read-only mode is enforced here, before any mutation:
        // every write statement funnels through this lock, so a wedged WAL
        // refuses the statement while the in-memory state is still intact.
        if let Some(wal) = &self.wal {
            wal.check_writable()?;
        }
        let catalog = self.catalog.write();
        self.catalog_version.fetch_add(1, Ordering::Release);
        Ok(catalog)
    }

    /// Count a write that copied its table's rows (`catalog.snapshot_copies`):
    /// they moved from `before` because a running statement or a
    /// transaction's saved catalog still held the snapshot the write
    /// replaced.
    fn count_copy(&self, before: *const Vec<Row>, table: &Table) {
        if self.telemetry.enabled() && !std::ptr::eq(before, Arc::as_ptr(&table.rows)) {
            self.telemetry.catalog_snapshot_copies.incr();
        }
    }

    /// End a write: log `ops` to the WAL (if there is one) under the
    /// still-held catalog lock — so WAL order equals catalog mutation order —
    /// release the lock, and block until the ops are durable.
    ///
    /// A statement that failed midway passes its `failure` along with the
    /// ops of the prefix it did apply: recovery must reproduce the in-memory
    /// state, not an idealized all-or-nothing one, so the prefix is still
    /// logged and pushed toward disk — but the statement's own error wins.
    fn commit(
        &self,
        catalog: RwLockWriteGuard<'_, Catalog>,
        ops: Vec<WalOp>,
        failure: Option<EngineError>,
        deadline: Option<Instant>,
        trace: Option<TraceScope<'_>>,
    ) -> Result<()> {
        let logged = match &self.wal {
            Some(wal) => wal.log_traced(&catalog, ops, deadline, trace.as_ref()),
            None => Ok(None),
        };
        drop(catalog);
        match failure {
            Some(e) => {
                if let Ok(ticket) = logged {
                    let _ = self.wal_wait(ticket, deadline, trace);
                }
                Err(e)
            }
            None => self.wal_wait(logged?, deadline, trace),
        }
    }

    /// Block until a group-commit ticket from the WAL is durable (no-op for
    /// `None` tickets, i.e. non-group writes). Callers must have released the
    /// catalog lock — overlapping writers blocking here concurrently is
    /// exactly what lets the flush leader coalesce their fsyncs. Also runs
    /// the automatic checkpoint trigger, which the group path defers until
    /// the catalog lock is available again.
    fn wal_wait(
        &self,
        ticket: Option<u64>,
        deadline: Option<Instant>,
        trace: Option<TraceScope<'_>>,
    ) -> Result<()> {
        let (Some(wal), Some(seq)) = (&self.wal, ticket) else {
            return Ok(());
        };
        wal.wait_durable_traced(seq, deadline, trace.as_ref())?;
        if wal.wants_checkpoint() && !self.in_transaction() {
            // Plain `write()` (no version bump): the catalog is not mutated.
            let catalog = self.catalog.write();
            wal.checkpoint(&catalog)?;
        }
        Ok(())
    }

    /// Run the source query of `INSERT … SELECT` / `CREATE TABLE AS` to
    /// completion: `cached`, the source template of a plan-cache entry, or
    /// one planned here. A source planned here joins the statement
    /// lifecycle at the plan stage like any query — verified, counted, its
    /// operators traced beneath the statement's exec span — and is cached
    /// only with its statement ([`Database::apply_storing`]).
    fn source_rows(
        &self,
        sql: &str,
        query: &Query,
        params: &[Value],
        cached: Option<Planned>,
        ctx: &mut StatementCtx,
    ) -> Result<(Vec<String>, Vec<Row>)> {
        let planned = match cached {
            Some(planned) => planned,
            None => self.plan_stage(sql, query, params, None, PlanVerify::Enforce, ctx)?,
        };
        let (result, _) = self.bind_and_run(planned, params, false, ctx)?;
        Ok((result.columns, result.rows))
    }

    /// Apply a DML statement checked in this lifecycle, storing it in the
    /// plan cache under `shape` for the next text of that shape: with its
    /// literals lifted, and an `INSERT … SELECT`'s source planned as a
    /// template. The entry records the source's tables and `target`, the
    /// table written as the check saw it. A statement the cache does not
    /// keep ([`crate::lift::lift_dml`]), or whose source ran a subquery while
    /// planning, is applied as it is.
    pub(super) fn apply_storing(
        &self,
        sql: &str,
        stmt: &Statement,
        params: &[Value],
        shape: Shape,
        target: PlannedTable,
        ctx: &mut StatementCtx,
    ) -> Result<StatementResult> {
        let Some((stmt, slots, lifted)) = crate::lift::lift_dml(stmt, &shape.literals) else {
            return self.apply(sql, stmt, params, None, ctx);
        };
        let lifted = (!lifted.is_empty()).then_some(lifted);
        let params = lifted.as_deref().unwrap_or(params);
        let source = match &stmt {
            Statement::Insert(insert) => Some(&insert.source),
            Statement::Delete { .. } | Statement::Update { .. } => None,
            _ => unreachable!("lift_dml keeps only INSERT … SELECT, DELETE and UPDATE"),
        };
        let (source, tables) = match source {
            Some(InsertSource::Query(query)) => {
                let values = slot_count(true, lifted.as_deref());
                let verify = PlanVerify::Enforce;
                let (query, program, bound, tables) =
                    self.plan_phase(sql, query, params, values, verify, ctx)?;
                let planned = Planned {
                    query,
                    program,
                    template: true,
                    lifted: None,
                    tables: bound,
                };
                (Some(planned), tables)
            }
            _ => (None, Some(Vec::new())),
        };
        let stmt = Arc::new(stmt);
        if let Some(mut tables) = tables {
            tables.push(target);
            let source = (source.as_ref()).map(|p| (Arc::clone(&p.query), Arc::clone(&p.program)));
            let entry = NewEntry {
                body: Body::Dml {
                    stmt: Arc::clone(&stmt),
                    source,
                },
                slots,
                tables,
                verified: self.config.verify_plans,
            };
            self.plan_cache.insert(shape.key, entry);
        }
        self.apply(sql, &stmt, params, source, ctx)
    }

    /// Evaluate uncorrelated subqueries inside a DML predicate against the
    /// current catalog (before the write lock is taken), under the
    /// statement's deadline and memory budget.
    fn resolve_dml_subqueries(
        &self,
        predicate: Option<Expr>,
        params: &[Value],
        ctx: &StatementCtx,
    ) -> Result<Option<Expr>> {
        let Some(mut pred) = predicate else {
            return Ok(None);
        };
        let catalog = self.catalog.read();
        let mut planner = Planner::new(&catalog, params, self.config.planner(), ctx.planner_exec())
            .with_virtuals(self);
        planner.resolve_subqueries(&mut pred)?;
        Ok(Some(pred))
    }

    /// The rows of `table` a `DELETE`/`UPDATE` predicate selects. Whether an
    /// index answers some of its conjuncts is the planner's decision, the
    /// one `SELECT` gets (`table_access`, which honours `use_indexes`, then
    /// `try_index_scan`); when one does, only its candidates are examined,
    /// against the whole predicate. Tags the exec span with the access path
    /// and counts the rows examined in `dml.rows_examined`. The selection
    /// keeps no snapshot of the table, so the caller's in-place mutation
    /// afterwards copies nothing.
    fn select_rows(
        &self,
        catalog: &Catalog,
        table: &str,
        predicate: Option<&Expr>,
        params: &[Value],
        ctx: &mut StatementCtx,
    ) -> Result<RowSelection> {
        let t = catalog.get(table)?;
        let mut selection = RowSelection {
            predicate: None,
            candidates: None,
        };
        let mut index_used = None;
        if let Some(pred) = predicate {
            let scope = table_scope(&t.name, &t.schema);
            selection.predicate = Some(bind_expr(pred, &scope, params)?);
            let planner = Planner::new(catalog, params, self.config.planner(), ctx.planner_exec());
            if let Some(access) = planner.table_access(t) {
                let conjuncts: Vec<Expr> = split_conjuncts(pred).into_iter().cloned().collect();
                let scan = planner.try_index_scan(&access, &scope, &conjuncts)?;
                if let Some((
                    PhysPlan::IndexScan {
                        index_name,
                        keys: Some(keys),
                        ..
                    },
                    _,
                )) = scan
                {
                    let index = t.index(&index_name).expect("the planner found it on `t`");
                    selection.candidates = Some(index_positions(&index, &keys)?);
                    index_used = Some(index_name);
                }
            }
        }
        ctx.clock.tag_exec("access", || match index_used {
            Some(name) => AttrValue::String(format!("index({name})")),
            None => AttrValue::Text("scan"),
        });
        if self.telemetry.enabled() {
            let examined = selection
                .candidates
                .as_ref()
                .map_or(t.row_count(), Vec::len);
            self.telemetry.dml_rows_examined.add(examined as u64);
        }
        Ok(selection)
    }

    fn execute_insert(
        &self,
        sql: &str,
        insert: &Insert,
        params: &[Value],
        source: Option<Planned>,
        ctx: &mut StatementCtx,
    ) -> Result<StatementResult> {
        // Evaluate the source rows to completion *before* taking the write
        // lock. The source query binds `Arc` snapshots of every table it
        // scans under a read lock — the one it was planned under, or the one
        // its cached plan was found valid under — so `INSERT INTO t SELECT
        // .. FROM t` reads a consistent pre-statement image of `t`: newly
        // inserted rows can never feed back into the same statement's
        // source, even though the scan snapshot and the write below are
        // separate lock acquisitions (the catalog rows are copy-on-write via
        // `Arc`).
        let source_rows: Vec<Row> = match &insert.source {
            InsertSource::Values(rows) => {
                let scope = Scope::default();
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        vals.push(bind_expr(e, &scope, params)?.eval(&[])?);
                    }
                    out.push(vals);
                }
                out
            }
            InsertSource::Query(q) => self.source_rows(sql, q, params, source, ctx)?.1,
        };

        let mut catalog = self.write_catalog()?;
        let t = catalog.get_mut(&insert.table)?;
        let before = Arc::as_ptr(&t.rows);

        // Map provided columns to schema positions.
        let positions: Vec<usize> = if insert.columns.is_empty() {
            (0..t.schema.len()).collect()
        } else {
            insert
                .columns
                .iter()
                .map(|c| {
                    t.schema.position(c).ok_or_else(|| {
                        EngineError::plan(format!(
                            "unknown column '{c}' in INSERT INTO {}",
                            insert.table
                        ))
                    })
                })
                .collect::<Result<_>>()?
        };

        // Resolve the conflict clause.
        let (resolved, do_update) = match &insert.on_conflict {
            None => (None, None),
            Some(oc) => {
                t.check_conflict_target(&oc.target_columns, &insert.table)
                    .map_err(EngineError::plan)?;
                match &oc.action {
                    ConflictAction::DoNothing => (Some(ResolvedConflict::DoNothing), None),
                    ConflictAction::DoUpdate(assignments) => {
                        // Bind assignments against [existing row, excluded row].
                        let mut labels: Vec<ColLabel> = t
                            .schema
                            .columns
                            .iter()
                            .map(|c| ColLabel::new(Some(&t.name), &c.name))
                            .collect();
                        labels.extend(
                            t.schema
                                .columns
                                .iter()
                                .map(|c| ColLabel::new(Some("excluded"), &c.name)),
                        );
                        let scope = Scope::new(labels);
                        let table_name = t.name.clone();
                        let mut bound = Vec::with_capacity(assignments.len());
                        for (col, expr) in assignments {
                            let pos = t.schema.position(col).ok_or_else(|| {
                                EngineError::plan(format!(
                                    "unknown column '{col}' in DO UPDATE SET"
                                ))
                            })?;
                            // PostgreSQL resolves bare columns to the existing
                            // row; qualify them with the table name up front.
                            let mut expr = expr.clone();
                            qualify_bare_columns(&mut expr, &table_name);
                            bound.push((pos, bind_expr(&expr, &scope, params)?));
                        }
                        (Some(ResolvedConflict::DoUpdate), Some(bound))
                    }
                }
            }
        };

        let width = t.schema.len();
        let wal_on = self.wal.is_some();
        let mut ops: Vec<WalOp> = Vec::new();
        let mut affected = 0usize;
        // Errors are captured rather than propagated with `?` so the ops of
        // the successfully applied prefix still reach the WAL (see
        // [`Database::commit`]).
        let mut failure: Option<EngineError> = None;
        'rows: for src in source_rows {
            if src.len() != positions.len() {
                failure = Some(EngineError::exec(format!(
                    "INSERT expects {} values per row, got {}",
                    positions.len(),
                    src.len()
                )));
                break;
            }
            let mut row: Row = vec![Value::Null; width];
            for (pos, v) in positions.iter().zip(src) {
                row[*pos] = v;
            }
            match t.insert_row(row, resolved.as_ref()) {
                Ok(InsertOutcome::Inserted) => {
                    affected += 1;
                    if wal_on {
                        // Log the row as stored (insert_row may coerce
                        // values), so replay matches byte for byte.
                        let stored = t.rows.last().expect("row just inserted").clone();
                        push_insert(&mut ops, &insert.table, stored);
                    }
                }
                Ok(InsertOutcome::Ignored) => {}
                Ok(InsertOutcome::Conflict {
                    existing_idx,
                    proposed,
                }) => {
                    let assignments = do_update
                        .as_ref()
                        .expect("DoUpdate resolution implies bound assignments");
                    // Evaluation row = existing ++ excluded.
                    let mut eval_row = t.rows[existing_idx].clone();
                    eval_row.extend(proposed);
                    let mut new_row = t.rows[existing_idx].clone();
                    for (pos, e) in assignments {
                        match e.eval(&eval_row) {
                            Ok(v) => new_row[*pos] = v,
                            Err(e) => {
                                failure = Some(e);
                                break 'rows;
                            }
                        }
                    }
                    let logged = wal_on.then(|| new_row.clone());
                    if let Err(e) = t.replace_row(existing_idx, new_row) {
                        failure = Some(e);
                        break;
                    }
                    affected += 1;
                    if let Some(row) = logged {
                        ops.push(WalOp::Replace {
                            table: insert.table.clone(),
                            idx: existing_idx as u64,
                            row,
                        });
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        self.count_copy(before, t);
        self.commit(catalog, ops, failure, ctx.deadline, ctx.wal_scope())?;
        Ok(StatementResult::Affected(affected))
    }

    /// Bulk-insert pre-built rows into a table (fast path used by data
    /// generators; equivalent to `INSERT INTO t VALUES ...`). Not a SQL
    /// statement: it is admitted and bounded by the statement timeout, but
    /// neither logged nor traced.
    pub fn insert_rows(&self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let deadline = self.deadline();
        let _permit = self.admit(deadline)?;
        let mut catalog = self.write_catalog()?;
        let t = catalog.get_mut(table)?;
        let before = Arc::as_ptr(&t.rows);
        let wal_on = self.wal.is_some();
        let mut applied = Vec::new();
        let mut n = 0usize;
        let mut failure = None;
        for row in rows {
            match t.insert_row(row, None) {
                Ok(_) => {
                    n += 1;
                    if wal_on {
                        applied.push(t.rows.last().expect("row just inserted").clone());
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        self.count_copy(before, t);
        let mut ops = Vec::new();
        if !applied.is_empty() {
            ops.push(WalOp::Insert {
                table: table.to_string(),
                rows: applied,
            });
        }
        self.commit(catalog, ops, failure, deadline, None)?;
        Ok(n)
    }

    /// Install an empty table filled with pre-built rows (used by snapshot
    /// restore); its indexes are built once, after the rows are in
    /// ([`Table::with_rows`]).
    pub fn restore_table(&self, table: Table, rows: Vec<Row>) -> Result<()> {
        // Pass the admission gate like a statement would; `install_table`
        // itself stays ungated so internal callers cannot self-deadlock.
        let _permit = self.admit(self.deadline())?;
        self.install_table(table.with_rows(rows)?)
    }

    /// Install a fully built table into the catalog, logging its schema,
    /// indexes, and rows to the WAL as one batch.
    pub(crate) fn install_table(&self, table: Table) -> Result<()> {
        let mut ops = Vec::new();
        if self.wal.is_some() {
            ops.push(WalOp::CreateTable {
                name: table.name.clone(),
                columns: table
                    .schema
                    .columns
                    .iter()
                    .map(|c| (c.name.clone(), c.ty))
                    .collect(),
                primary_key: table.primary_key_names(),
            });
            for index in &table.secondary {
                ops.push(WalOp::CreateIndex {
                    table: table.name.clone(),
                    name: index.name.clone(),
                    columns: index
                        .key_columns
                        .iter()
                        .map(|&i| table.schema.columns[i].name.clone())
                        .collect(),
                    unique: false,
                });
            }
            if !table.rows.is_empty() {
                ops.push(WalOp::Insert {
                    table: table.name.clone(),
                    rows: table.rows.as_ref().clone(),
                });
            }
        }
        let deadline = self.deadline();
        let mut catalog = self.write_catalog()?;
        catalog.create_table(table, false)?;
        self.commit(catalog, ops, None, deadline, None)
    }
}

/// A schema of `(name, type)` columns.
fn schema_of(columns: &[(String, DataType)]) -> Schema {
    Schema::new(
        columns
            .iter()
            .map(|(name, ty)| Column {
                name: name.clone(),
                ty: *ty,
            })
            .collect(),
    )
}

/// The rows a `DELETE`/`UPDATE` predicate selects ([`Database::select_rows`]).
struct RowSelection {
    /// The whole bound predicate; `None` selects every row.
    predicate: Option<PhysExpr>,
    /// Ascending positions an index lookup answered; `None` examines every
    /// row.
    candidates: Option<Vec<usize>>,
}

impl RowSelection {
    /// Call `f` on each selected row with its position, ascending — DML's
    /// one predicate-evaluation loop.
    fn for_each_match(
        &self,
        rows: &[Row],
        mut f: impl FnMut(usize, &Row) -> Result<()>,
    ) -> Result<()> {
        let mut visit = |i: usize| match &self.predicate {
            Some(p) if p.eval(&rows[i])?.as_bool()? != Some(true) => Ok(()),
            _ => f(i, &rows[i]),
        };
        match &self.candidates {
            Some(positions) => positions.iter().try_for_each(|&i| visit(i)),
            None => (0..rows.len()).try_for_each(visit),
        }
    }
}
