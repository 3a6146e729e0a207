"""Memory substrate: physical memory, page tables, TLBs, caches, DRAM."""

from .address_space import AddressSpace
from .page_table import PAGE_SHIFT, PAGE_SIZE, PageTable, PageTableEntry, vpn_of
from .physical import WORD_SIZE, MemoryImage, PhysicalMemory
from .stats import AccessStats

__all__ = [
    "AccessStats",
    "AddressSpace",
    "MemoryImage",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PageTable",
    "PageTableEntry",
    "PhysicalMemory",
    "WORD_SIZE",
    "vpn_of",
]
