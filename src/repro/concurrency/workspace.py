"""Private workspaces with check-out/check-in (requirement R9).

R9 asks for *cooperation* rather than competition between users doing
collaborative work on shared structures: "a notion of private and
shared workspaces is desirable ... it should be possible for two users
to update different nodes in the same structure", with updates becoming
visible to others when their author decides to share them.

:class:`SharedStore` wraps any HyperModel backend with a check-out
registry; a :class:`Workspace` checks nodes out (taking a long-lived
reservation, not a short lock), edits private copies, and publishes
everything at :meth:`~Workspace.check_in`.  Checking out a node someone
else holds raises :class:`~repro.errors.CheckOutConflictError` — the
cooperative analogue of a lock conflict, surfaced to the *user* instead
of blocking a transaction.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.core.bitmap import Bitmap
from repro.core.interface import HyperModelDatabase, NodeRef
from repro.core.model import NodeKind
from repro.core.schema import MUTABLE_ATTRIBUTES
from repro.errors import CheckOutConflictError, WorkspaceError


class SharedStore:
    """A shared database plus the check-out registry all users see."""

    def __init__(self, db: HyperModelDatabase) -> None:
        self.db = db
        self._mutex = threading.Lock()
        self._checked_out: Dict[int, str] = {}  # uid -> workspace name

    def workspace(self, name: str) -> "Workspace":
        """Create a private workspace for one user."""
        return Workspace(self, name)

    # -- registry ---------------------------------------------------------

    def _reserve(self, uid: int, owner: str) -> None:
        with self._mutex:
            holder = self._checked_out.get(uid)
            if holder is not None and holder != owner:
                raise CheckOutConflictError(
                    f"node {uid} is checked out to {holder!r}"
                )
            self._checked_out[uid] = owner

    def _release(self, uid: int, owner: str) -> None:
        with self._mutex:
            if self._checked_out.get(uid) == owner:
                del self._checked_out[uid]

    def holder_of(self, uid: int) -> Optional[str]:
        """Which workspace holds a node, if any."""
        with self._mutex:
            return self._checked_out.get(uid)

    def checked_out_count(self) -> int:
        """Number of nodes currently reserved."""
        with self._mutex:
            return len(self._checked_out)


class _Draft:
    """The private, editable copy of one checked-out node."""

    __slots__ = ("uid", "ref", "kind", "attributes", "text", "bitmap", "dirty")

    def __init__(
        self, uid: int, ref: NodeRef, kind: NodeKind, attributes: Dict[str, int]
    ) -> None:
        self.uid = uid
        self.ref = ref
        self.kind = kind
        self.attributes = attributes
        self.text: Optional[str] = None
        self.bitmap: Optional[Bitmap] = None
        self.dirty = False


class Workspace:
    """One user's private view: checked-out drafts over the shared data.

    Reads fall through to the shared database for nodes not checked
    out; edits require a check-out first.  ``check_in`` publishes and
    releases everything; ``abandon`` releases without publishing.
    """

    def __init__(self, shared: SharedStore, name: str) -> None:
        self.shared = shared
        self.name = name
        self._drafts: Dict[int, _Draft] = {}

    # ------------------------------------------------------------------
    # Check-out lifecycle
    # ------------------------------------------------------------------

    def check_out(self, uid: int) -> None:
        """Reserve a node and snapshot it into this workspace.

        Raises:
            CheckOutConflictError: if another workspace holds it.
        """
        if uid in self._drafts:
            return
        self.shared._reserve(uid, self.name)
        try:
            db = self.shared.db
            ref = db.lookup(uid)
            kind = db.kind_of(ref)
            attributes = {
                name: db.get_attribute(ref, name)
                for name in MUTABLE_ATTRIBUTES
            }
            draft = _Draft(uid, ref, kind, attributes)
            if kind is NodeKind.TEXT:
                draft.text = db.get_text(ref)
            elif kind is NodeKind.FORM:
                draft.bitmap = db.get_bitmap(ref).copy()
            self._drafts[uid] = draft
        except Exception:
            self.shared._release(uid, self.name)
            raise

    def check_in(self) -> List[int]:
        """Publish every dirty draft to the shared database and release.

        Returns the uids whose changes became shareable.
        """
        db = self.shared.db
        published: List[int] = []
        for draft in self._drafts.values():
            if draft.dirty:
                for name, value in draft.attributes.items():
                    db.set_attribute(draft.ref, name, value)
                if draft.kind is NodeKind.TEXT:
                    db.set_text(draft.ref, draft.text)
                elif draft.kind is NodeKind.FORM:
                    db.set_bitmap(draft.ref, draft.bitmap)
                published.append(draft.uid)
        db.commit()
        self._release_all()
        return published

    def abandon(self) -> None:
        """Discard every draft and release the reservations."""
        self._release_all()

    def _release_all(self) -> None:
        for uid in list(self._drafts):
            self.shared._release(uid, self.name)
        self._drafts.clear()

    # ------------------------------------------------------------------
    # Private editing
    # ------------------------------------------------------------------

    def _draft(self, uid: int) -> _Draft:
        try:
            return self._drafts[uid]
        except KeyError:
            raise WorkspaceError(
                f"node {uid} is not checked out to workspace {self.name!r}"
            ) from None

    def set_attribute(self, uid: int, name: str, value: int) -> None:
        """Edit an integer attribute of a checked-out node (privately)."""
        draft = self._draft(uid)
        if name not in draft.attributes:
            raise KeyError(f"unknown node attribute {name!r}")
        draft.attributes[name] = value
        draft.dirty = True

    def set_text(self, uid: int, text: str) -> None:
        """Edit the body of a checked-out text node (privately)."""
        draft = self._draft(uid)
        if draft.kind is not NodeKind.TEXT:
            raise WorkspaceError(f"node {uid} is not a text node")
        draft.text = text
        draft.dirty = True

    def edit_bitmap(self, uid: int) -> Bitmap:
        """The private bitmap of a checked-out form node, for editing."""
        draft = self._draft(uid)
        if draft.kind is not NodeKind.FORM:
            raise WorkspaceError(f"node {uid} is not a form node")
        draft.dirty = True
        return draft.bitmap

    # ------------------------------------------------------------------
    # Reading (workspace view: drafts shadow the shared state)
    # ------------------------------------------------------------------

    def get_attribute(self, uid: int, name: str) -> int:
        """Read an attribute through this workspace's view."""
        draft = self._drafts.get(uid)
        if draft is not None and name in draft.attributes:
            return draft.attributes[name]
        db = self.shared.db
        return db.get_attribute(db.lookup(uid), name)

    def get_text(self, uid: int) -> str:
        """Read a text body through this workspace's view."""
        draft = self._drafts.get(uid)
        if draft is not None and draft.text is not None:
            return draft.text
        db = self.shared.db
        return db.get_text(db.lookup(uid))

    @property
    def checked_out(self) -> List[int]:
        """Uids currently checked out to this workspace."""
        return list(self._drafts)

    @property
    def dirty_count(self) -> int:
        """How many drafts carry unpublished edits."""
        return sum(1 for d in self._drafts.values() if d.dirty)
